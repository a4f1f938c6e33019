// Package ast defines the abstract syntax tree for the SciQL dialect:
// SQL:2003 statements extended with ARRAY DDL (DIMENSION constraints),
// dimension-qualified target lists, array slicing, structural tiling
// in GROUP BY, guarded SET updates, and PSM bodies for white-box
// functions.
package ast

import (
	"strings"

	"repro/internal/sql/lexer"
	"repro/internal/value"
)

// Node is implemented by every AST node.
type Node interface{ node() }

// Statement is implemented by every executable statement.
type Statement interface {
	Node
	stmt()
}

// Expr is implemented by every expression node.
type Expr interface {
	Node
	expr()
}

// ---------------------------------------------------------------------------
// Expressions

// Literal is a constant value.
type Literal struct{ Val value.Value }

// Ident is a possibly qualified column/dimension/variable reference.
type Ident struct {
	Table string // optional qualifier
	Name  string
}

// String renders the qualified name as the lexer will read it back:
// bare when a part lexes as one plain identifier token, delimited
// ("...") when it is empty, reserved, or contains other characters —
// the round-trip property covers names that arrived quoted.
func (id *Ident) String() string {
	if id.Table != "" {
		return quoteIdent(id.Table) + "." + quoteIdent(id.Name)
	}
	return quoteIdent(id.Name)
}

func quoteIdent(name string) string {
	if lexer.IsPlainIdent(name) && !lexer.IsReserved(name) {
		return name
	}
	return `"` + name + `"`
}

// Param is a named host parameter (?name) bound at execution time.
type Param struct{ Name string }

// Unary is a prefix operator application: -, NOT.
type Unary struct {
	Op string
	X  Expr
}

// Binary is an infix operator application.
type Binary struct {
	Op   string // + - * / % = <> < <= > >= AND OR ||
	L, R Expr
}

// FuncCall is a function or aggregate invocation.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool
}

// IsAggregate reports whether the call is one of the SQL aggregates.
func (f *FuncCall) IsAggregate() bool {
	switch strings.ToUpper(f.Name) {
	case "SUM", "COUNT", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// Case is a searched or simple CASE expression.
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

// Cast converts an expression to a type.
type Cast struct {
	X  Expr
	To value.Type
}

// IsNull tests nullness (negated for IS NOT NULL).
type IsNull struct {
	X   Expr
	Neg bool
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	X      Expr
	Lo, Hi Expr
	Neg    bool
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	X     Expr
	Elems []Expr
	Neg   bool
}

// Subquery is a scalar subquery in expression position.
type Subquery struct{ Select *Select }

// Star is the * or A.* target item in expression position.
type Star struct{ Table string }

// Indexer is one [...] applied to an array: either a point index, a
// start:stop:step range pattern, or the unbounded pattern [*].
type Indexer struct {
	Point Expr // non-nil for a point index
	Start Expr // range fields; nil means the dimension's default
	Stop  Expr
	Step  Expr
	Star  bool // [*]
	Range bool // true when the colon form was used
}

// ArrayRef is an indexed array access: base[idx]...[idx](.attr)?
// Examples from the paper: matrix[1][1].v, sparse[0:2][0:2].v,
// landsat[3][x-1:x+1][y-1:y+1], matrix[x][*], samples[t0:t1].
type ArrayRef struct {
	Base     Expr // usually *Ident; may be nested (samples[time].data)
	Indexers []Indexer
	Attr     string // optional .attr suffix ("" when absent)
}

// ArrayLit is the literal constructor SELECT ARRAY(1,2,3,4) or
// ARRAY((1,2),(3,4)); nested rows make it 2-D.
type ArrayLit struct {
	Rows [][]Expr // one row per tuple; a flat list is a single row
}

// ExprList is a parenthesized value list used on the right-hand side
// of array SET statements: SET vector[0:2].v = (expr1, expr2).
type ExprList struct{ Elems []Expr }

func (*Literal) expr()  {}
func (*Ident) expr()    {}
func (*Param) expr()    {}
func (*Unary) expr()    {}
func (*Binary) expr()   {}
func (*FuncCall) expr() {}
func (*Case) expr()     {}
func (*Cast) expr()     {}
func (*IsNull) expr()   {}
func (*Between) expr()  {}
func (*InList) expr()   {}
func (*Subquery) expr() {}
func (*Star) expr()     {}
func (*ArrayRef) expr() {}
func (*ArrayLit) expr() {}
func (*ExprList) expr() {}

func (*Literal) node()  {}
func (*Ident) node()    {}
func (*Param) node()    {}
func (*Unary) node()    {}
func (*Binary) node()   {}
func (*FuncCall) node() {}
func (*Case) node()     {}
func (*Cast) node()     {}
func (*IsNull) node()   {}
func (*Between) node()  {}
func (*InList) node()   {}
func (*Subquery) node() {}
func (*Star) node()     {}
func (*ArrayRef) node() {}
func (*ArrayLit) node() {}
func (*ExprList) node() {}

// ---------------------------------------------------------------------------
// SELECT

// SelectItem is one target-list entry. DimQual marks the SciQL [attr]
// qualifier that turns the output into an array dimension.
type SelectItem struct {
	Expr    Expr
	Alias   string
	DimQual bool
}

// TableRef is a FROM-clause item: a named object (with optional slab
// slicing, e.g. FROM vmatrix[0:3][0:3]), or a derived table.
type TableRef struct {
	Name     string
	Indexers []Indexer // optional slicing of the source array
	Subquery *Select
	Alias    string
}

// Join combines two from-items.
type Join struct {
	Left, Right FromItem
	On          Expr   // nil for CROSS JOIN / comma join
	Kind        string // "INNER", "CROSS", "LEFT"
}

// FromItem is either a TableRef or a Join.
type FromItem interface {
	Node
	fromItem()
}

func (*TableRef) fromItem() {}
func (*Join) fromItem()     {}
func (*TableRef) node()     {}
func (*Join) node()         {}

// TileElement is one cell denotation inside a structural GROUP BY:
// an ArrayRef whose indexers are expressions over the anchor-point
// dimension variables (matrix[x+1][y], matrix[x:x+2][y:y+2], a[x][*]).
type TileElement struct{ Ref *ArrayRef }

// GroupBy is either value-based (Exprs) or structural (Tiles). For
// structural grouping, Distinct selects only tiles whose boundary
// indexes are mutually exclusive (§4.4).
type GroupBy struct {
	Exprs    []Expr
	Tiles    []TileElement
	Distinct bool
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a query expression. SetOp chains UNION terms.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr
	GroupBy  *GroupBy
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil = no limit
	// SetOp links a UNION [ALL] continuation.
	SetOp    string // "" | "UNION" | "UNION ALL"
	SetRight *Select
}

func (*Select) node() {}
func (*Select) stmt() {}

// Explain wraps a SELECT: the engine compiles and optimizes the query
// through the logical planner and returns the rendered plan tree
// instead of executing it. With Analyze (EXPLAIN ANALYZE) the
// statement additionally executes, and the tree is annotated with the
// per-operator runtime statistics of that execution. EXPLAIN ANALYZE
// also takes an UPDATE or DELETE (DML, with Select nil): the statement
// runs — its writes happen — and the one line returned reports what it
// scanned, matched and copied.
type Explain struct {
	Select  *Select
	DML     Statement
	Analyze bool
}

func (*Explain) node() {}
func (*Explain) stmt() {}

// ---------------------------------------------------------------------------
// DDL

// DimSpec is the DIMENSION constraint of §3.1: [size] shorthand,
// [start:final:step] sequence pattern with '*' for unbounded ends, or
// a named SQL SEQUENCE.
type DimSpec struct {
	// Size is the [n] shorthand (nil if the colon form or a sequence
	// name was used).
	Size Expr
	// Start/End/Step are the colon-form fields; nil means the
	// type-dependent default; the Star flags mark '*'.
	Start, End, Step   Expr
	StarStart, StarEnd bool
	StarStep           bool
	SeqName            string
	// Bare marks a DIMENSION with no range at all (unbounded both ways).
	Bare bool
}

// ColDef is a column definition for CREATE TABLE / CREATE ARRAY.
type ColDef struct {
	Name    string
	Type    value.Type
	IsDim   bool
	Dim     *DimSpec
	Default Expr
	Check   Expr
	// NestedArray holds the element schema for ARRAY-typed columns
	// (samples ARRAY(time TIMESTAMP DIMENSION, data DOUBLE)).
	NestedArray []ColDef
	// FixedArrayDims holds the [4][4] sizes of the payload FLOAT
	// ARRAY[4][4] shorthand.
	FixedArrayDims []Expr
	PrimaryKey     bool
}

// TableConstraint covers PRIMARY KEY / FOREIGN KEY table clauses.
type TableConstraint struct {
	Kind       string // "PRIMARY KEY" | "FOREIGN KEY"
	Columns    []string
	RefTable   string
	RefColumns []string
}

// CreateTable creates a relational table.
type CreateTable struct {
	Name        string
	Cols        []ColDef
	Constraints []TableConstraint
}

// CreateArray creates a SciQL array. Like copies another object's
// schema (CREATE ARRAY black (LIKE white)); AsSelect fills from a
// query (CREATE ARRAY v (...) AS SELECT ...).
type CreateArray struct {
	Name     string
	Cols     []ColDef
	Like     string
	AsSelect *Select
}

// CreateSequence defines an integer sequence usable as a dimension.
type CreateSequence struct {
	Name      string
	Typ       value.Type
	Start     Expr
	Increment Expr
	MaxValue  Expr
}

// ParamDef is a function parameter: scalar or array-typed.
type ParamDef struct {
	Name  string
	Type  value.Type
	Array []ColDef // non-nil for ARRAY(...) typed params
}

// ReturnsDef is a function result type.
type ReturnsDef struct {
	Type  value.Type
	Array []ColDef
}

// CreateFunction covers white-box PSM functions (Body / ReturnExpr)
// and black-box EXTERNAL NAME functions (§6).
type CreateFunction struct {
	Name     string
	Params   []ParamDef
	Returns  ReturnsDef
	Body     []PSMStmt
	External string // EXTERNAL NAME 'x'
}

// AlterArray changes an array's catalog entry: shift a dimension's
// range (ALTER x DIMENSION[-5:*]) or add a derived attribute.
type AlterArray struct {
	Name string
	// AlterDim re-declares a dimension's range.
	AlterDimName string
	AlterDim     *DimSpec
	// AddCol appends an attribute (possibly DIMENSION-tagged).
	AddCol *ColDef
}

// Drop removes an object.
type Drop struct {
	Kind string // "TABLE" | "ARRAY" | "SEQUENCE" | "FUNCTION"
	Name string
}

func (*CreateTable) node()    {}
func (*CreateArray) node()    {}
func (*CreateSequence) node() {}
func (*CreateFunction) node() {}
func (*AlterArray) node()     {}
func (*Drop) node()           {}

func (*CreateTable) stmt()    {}
func (*CreateArray) stmt()    {}
func (*CreateSequence) stmt() {}
func (*CreateFunction) stmt() {}
func (*AlterArray) stmt()     {}
func (*Drop) stmt()           {}

// ---------------------------------------------------------------------------
// Transactions

// TxKind discriminates transaction-control statements.
type TxKind string

// Transaction statement kinds.
const (
	TxBegin    TxKind = "BEGIN"
	TxCommit   TxKind = "COMMIT"
	TxRollback TxKind = "ROLLBACK"
)

// TxStmt is BEGIN [TRANSACTION] / START TRANSACTION, COMMIT or
// ROLLBACK: explicit snapshot-isolated transaction control.
type TxStmt struct {
	Kind TxKind
}

func (*TxStmt) node() {}
func (*TxStmt) stmt() {}

// ---------------------------------------------------------------------------
// DML

// Insert adds rows/cells. The spreadsheet shifting semantics of §3.2
// apply when the target is an array and the cell is occupied.
type Insert struct {
	Table   string
	Columns []string
	Values  [][]Expr
	Select  *Select
}

// Assign is one SET target = expr pair. The target may be a plain
// column (Ident) or an array reference with indexers (img[x][y].v).
type Assign struct {
	Target Expr // *Ident or *ArrayRef
	Value  Expr
}

// Update modifies cells/rows in place.
type Update struct {
	Table string
	Sets  []Assign
	Where Expr
}

// SetStmt is the standalone SciQL statement form
// SET vector[0:2].v = (expr1,expr2); the dimension attributes act as
// free variables running over all valid dimension values (§4.2).
type SetStmt struct{ Assign Assign }

// Delete removes rows (tables) or kills rows/columns via anchor cells
// (arrays, §3.2).
type Delete struct {
	Table string
	Where Expr
}

func (*Insert) node()  {}
func (*Update) node()  {}
func (*SetStmt) node() {}
func (*Delete) node()  {}

func (*Insert) stmt()  {}
func (*Update) stmt()  {}
func (*SetStmt) stmt() {}
func (*Delete) stmt()  {}

// ---------------------------------------------------------------------------
// PSM (white-box function bodies, §6.1)

// PSMStmt is a statement allowed inside BEGIN..END function bodies.
type PSMStmt interface {
	Node
	psm()
}

// Declare introduces local variables.
type Declare struct {
	Names []string
	Type  value.Type
}

// SetVar assigns a local variable (SET s1 = expr). The value may be a
// scalar subquery.
type SetVar struct {
	Name  string
	Value Expr
}

// If is IF cond THEN ... [ELSE ...] END IF.
type If struct {
	Cond Expr
	Then []PSMStmt
	Else []PSMStmt
}

// Return yields the function result: an expression or a SELECT
// (array-producing functions RETURN SELECT [j],[i], ... FROM a).
type Return struct {
	Expr   Expr
	Select *Select
}

func (*Declare) node() {}
func (*SetVar) node()  {}
func (*If) node()      {}
func (*Return) node()  {}

func (*Declare) psm() {}
func (*SetVar) psm()  {}
func (*If) psm()      {}
func (*Return) psm()  {}

// ---------------------------------------------------------------------------
// Helpers

// Walk visits e and every sub-expression in depth-first order; the
// visitor returns false to prune.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case *Unary:
		Walk(x.X, visit)
	case *Binary:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *FuncCall:
		for _, a := range x.Args {
			Walk(a, visit)
		}
	case *Case:
		Walk(x.Operand, visit)
		for _, w := range x.Whens {
			Walk(w.Cond, visit)
			Walk(w.Result, visit)
		}
		Walk(x.Else, visit)
	case *Cast:
		Walk(x.X, visit)
	case *IsNull:
		Walk(x.X, visit)
	case *Between:
		Walk(x.X, visit)
		Walk(x.Lo, visit)
		Walk(x.Hi, visit)
	case *InList:
		Walk(x.X, visit)
		for _, e := range x.Elems {
			Walk(e, visit)
		}
	case *ArrayRef:
		Walk(x.Base, visit)
		for _, ix := range x.Indexers {
			Walk(ix.Point, visit)
			Walk(ix.Start, visit)
			Walk(ix.Stop, visit)
			Walk(ix.Step, visit)
		}
	case *ArrayLit:
		for _, row := range x.Rows {
			for _, e := range row {
				Walk(e, visit)
			}
		}
	case *ExprList:
		for _, e := range x.Elems {
			Walk(e, visit)
		}
	}
}

// HasAggregate reports whether the expression contains an aggregate
// call.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && f.IsAggregate() {
			found = true
			return false
		}
		return true
	})
	return found
}
