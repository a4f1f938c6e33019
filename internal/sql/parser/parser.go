// Package parser implements a recursive-descent parser for the SciQL
// dialect: SQL:2003 statements plus the array extensions of the paper
// — ARRAY DDL with DIMENSION constraints, dimension-qualified target
// lists, array slicing, structural tiling GROUP BY, guarded SET
// statements, ALTER ARRAY, and PSM bodies for white-box functions.
package parser

import (
	"fmt"
	"strings"

	"repro/internal/sql/ast"
	"repro/internal/sql/lexer"
	"repro/internal/value"
)

// Parser holds the token stream and the cursor.
type Parser struct {
	toks []lexer.Token
	pos  int
}

// Parse tokenizes and parses a script of semicolon-separated
// statements.
func Parse(src string) ([]ast.Statement, error) {
	toks, err := lexer.New(src).All()
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	var stmts []ast.Statement
	for {
		for p.acceptSymbol(";") {
		}
		if p.cur().Kind == lexer.EOF {
			return stmts, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptSymbol(";") && p.cur().Kind != lexer.EOF {
			return nil, p.errf("expected ';' after statement, found %s", p.cur())
		}
	}
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (ast.Statement, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseExpr parses a standalone expression (used by tests and by the
// engine when compiling CHECK/DEFAULT clauses stored as text).
func ParseExpr(src string) (ast.Expr, error) {
	toks, err := lexer.New(src).All()
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != lexer.EOF {
		return nil, p.errf("trailing input after expression: %s", p.cur())
	}
	return e, nil
}

// --- cursor helpers --------------------------------------------------------

func (p *Parser) cur() lexer.Token { return p.toks[p.pos] }

func (p *Parser) peek(n int) lexer.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) advance() lexer.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.cur().Line, fmt.Sprintf(format, args...))
}

func (p *Parser) isKeyword(k string) bool {
	t := p.cur()
	return t.Kind == lexer.Keyword && t.Text == k
}

func (p *Parser) acceptKeyword(k string) bool {
	if p.isKeyword(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(k string) error {
	if !p.acceptKeyword(k) {
		return p.errf("expected %s, found %s", k, p.cur())
	}
	return nil
}

func (p *Parser) isSymbol(s string) bool {
	t := p.cur()
	return t.Kind == lexer.Symbol && t.Text == s
}

func (p *Parser) acceptSymbol(s string) bool {
	if p.isSymbol(s) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	return nil
}

// isSoft matches an identifier or keyword with the given upper-case
// text; used for context-sensitive words (NAME, START, WITH, ...).
func (p *Parser) isSoft(word string) bool {
	t := p.cur()
	return (t.Kind == lexer.Ident || t.Kind == lexer.Keyword) && strings.ToUpper(t.Text) == word
}

func (p *Parser) acceptSoft(word string) bool {
	if p.isSoft(word) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectSoft(word string) error {
	if !p.acceptSoft(word) {
		return p.errf("expected %s, found %s", word, p.cur())
	}
	return nil
}

// parseIdent consumes an identifier; soft keywords are allowed so
// columns named like context words (name, data, time...) work.
func (p *Parser) parseIdent() (string, error) {
	t := p.cur()
	if t.Kind == lexer.Ident {
		p.advance()
		return t.Text, nil
	}
	return "", p.errf("expected identifier, found %s", t)
}

// --- statement dispatch ----------------------------------------------------

func (p *Parser) parseStatement() (ast.Statement, error) {
	t := p.cur()
	if t.Kind != lexer.Keyword {
		return nil, p.errf("expected statement, found %s", t)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		p.advance()
		// ANALYZE is contextual (not reserved): EXPLAIN ANALYZE SELECT
		// profiles the execution, while columns named analyze still work.
		analyze := p.acceptSoft("ANALYZE")
		if t := p.cur(); analyze && t.Kind == lexer.Keyword && (t.Text == "UPDATE" || t.Text == "DELETE") {
			dml, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			return &ast.Explain{DML: dml, Analyze: true}, nil
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ast.Explain{Select: sel, Analyze: analyze}, nil
	case "CREATE":
		return p.parseCreate()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "SET":
		return p.parseSetStmt()
	case "ALTER":
		return p.parseAlter()
	case "DROP":
		return p.parseDrop()
	case "BEGIN", "START", "COMMIT", "ROLLBACK":
		return p.parseTxStmt()
	default:
		return nil, p.errf("unexpected statement keyword %s", t.Text)
	}
}

// parseTxStmt parses transaction control: BEGIN [TRANSACTION|WORK],
// START TRANSACTION, COMMIT [WORK], ROLLBACK [WORK]. TRANSACTION and
// WORK are not reserved — they lex as identifiers and are accepted
// contextually here, so columns may still carry those names.
func (p *Parser) parseTxStmt() (ast.Statement, error) {
	t := p.advance()
	switch t.Text {
	case "BEGIN":
		if !p.acceptWord("TRANSACTION") {
			p.acceptWord("WORK")
		}
		return &ast.TxStmt{Kind: ast.TxBegin}, nil
	case "START":
		if !p.acceptWord("TRANSACTION") {
			return nil, p.errf("expected TRANSACTION after START, found %s", p.cur())
		}
		return &ast.TxStmt{Kind: ast.TxBegin}, nil
	case "COMMIT":
		p.acceptWord("WORK")
		return &ast.TxStmt{Kind: ast.TxCommit}, nil
	case "ROLLBACK":
		p.acceptWord("WORK")
		return &ast.TxStmt{Kind: ast.TxRollback}, nil
	}
	return nil, p.errf("unexpected transaction keyword %s", t.Text)
}

// acceptWord consumes the next token when it spells the given word,
// whether it lexed as a keyword or a plain identifier (contextual
// keywords like TRANSACTION/WORK).
func (p *Parser) acceptWord(w string) bool {
	t := p.cur()
	if (t.Kind == lexer.Keyword || t.Kind == lexer.Ident) && strings.EqualFold(t.Text, w) {
		p.advance()
		return true
	}
	return false
}

// --- DDL --------------------------------------------------------------------

func (p *Parser) parseCreate() (ast.Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("ARRAY"):
		return p.parseCreateArray()
	case p.acceptKeyword("SEQUENCE"):
		return p.parseCreateSequence()
	case p.acceptKeyword("FUNCTION"):
		return p.parseCreateFunction()
	default:
		return nil, p.errf("expected TABLE, ARRAY, SEQUENCE or FUNCTION after CREATE")
	}
}

func (p *Parser) parseCreateTable() (ast.Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	out := &ast.CreateTable{Name: name}
	for {
		if p.isKeyword("PRIMARY") || p.isKeyword("FOREIGN") {
			c, err := p.parseTableConstraint()
			if err != nil {
				return nil, err
			}
			out.Constraints = append(out.Constraints, *c)
		} else {
			col, err := p.parseColDef()
			if err != nil {
				return nil, err
			}
			out.Cols = append(out.Cols, *col)
		}
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parseTableConstraint() (*ast.TableConstraint, error) {
	c := &ast.TableConstraint{}
	switch {
	case p.acceptKeyword("PRIMARY"):
		if err := p.expectKeyword("KEY"); err != nil {
			return nil, err
		}
		c.Kind = "PRIMARY KEY"
		cols, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		c.Columns = cols
	case p.acceptKeyword("FOREIGN"):
		if err := p.expectKeyword("KEY"); err != nil {
			return nil, err
		}
		c.Kind = "FOREIGN KEY"
		cols, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		c.Columns = cols
		if err := p.expectKeyword("REFERENCES"); err != nil {
			return nil, err
		}
		ref, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		c.RefTable = ref
		if p.isSymbol("(") {
			rc, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			c.RefColumns = rc
		}
	}
	return c, nil
}

func (p *Parser) parseIdentList() ([]string, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parseCreateArray() (ast.Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	out := &ast.CreateArray{Name: name}
	if p.acceptSymbol("(") {
		if p.acceptKeyword("LIKE") {
			like, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			out.Like = like
		} else {
			for {
				col, err := p.parseColDef()
				if err != nil {
					return nil, err
				}
				out.Cols = append(out.Cols, *col)
				if !p.acceptSymbol(",") {
					break
				}
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("AS") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		out.AsSelect = sel
	}
	if out.Cols == nil && out.Like == "" && out.AsSelect == nil {
		return nil, p.errf("CREATE ARRAY %s requires a column list, LIKE, or AS SELECT", name)
	}
	return out, nil
}

// parseColDef parses one column definition:
//
//	x INTEGER DIMENSION[0:4:1] CHECK(...)
//	v FLOAT DEFAULT 0.0 CHECK(v>0)
//	payload FLOAT ARRAY[4][4] DEFAULT 0.0
//	samples ARRAY (time TIMESTAMP DIMENSION, data DOUBLE)
//	seqnr INTEGER PRIMARY KEY
func (p *Parser) parseColDef() (*ast.ColDef, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	col := &ast.ColDef{Name: name}
	// Nested-array typed column: name ARRAY ( ... )
	if p.acceptKeyword("ARRAY") {
		col.Type = value.Array
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		for {
			nested, err := p.parseColDef()
			if err != nil {
				return nil, err
			}
			col.NestedArray = append(col.NestedArray, *nested)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return col, p.parseColOptions(col)
	}
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	col.Type = typ
	// FLOAT ARRAY[4][4] shorthand.
	if p.acceptKeyword("ARRAY") {
		base := col.Type
		col.Type = value.Array
		for p.isSymbol("[") {
			p.advance()
			sz, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			col.FixedArrayDims = append(col.FixedArrayDims, sz)
			if err := p.expectSymbol("]"); err != nil {
				return nil, err
			}
		}
		// Record the element type via a synthetic nested schema with
		// anonymous dims named d0..dn and a single value attribute.
		col.NestedArray = []ast.ColDef{{Name: "v", Type: base}}
	}
	return col, p.parseColOptions(col)
}

func (p *Parser) parseColOptions(col *ast.ColDef) error {
	for {
		switch {
		case p.acceptKeyword("DIMENSION"):
			col.IsDim = true
			spec, err := p.parseDimSpec()
			if err != nil {
				return err
			}
			col.Dim = spec
		case p.acceptKeyword("DEFAULT"):
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			col.Default = e
		case p.acceptKeyword("CHECK"):
			if err := p.expectSymbol("("); err != nil {
				return err
			}
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			if err := p.expectSymbol(")"); err != nil {
				return err
			}
			col.Check = e
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return err
			}
			col.PrimaryKey = true
		default:
			return nil
		}
	}
}

// parseDimSpec parses the optional range after DIMENSION:
//
//	DIMENSION            -> bare (unbounded)
//	DIMENSION[4]         -> size shorthand
//	DIMENSION[0:4:1]     -> sequence pattern; '*' allowed per element
//	DIMENSION[-5:*]      -> open end
//	DIMENSION rng        -> named sequence
func (p *Parser) parseDimSpec() (*ast.DimSpec, error) {
	spec := &ast.DimSpec{}
	if p.cur().Kind == lexer.Ident {
		name, _ := p.parseIdent()
		spec.SeqName = name
		return spec, nil
	}
	if !p.acceptSymbol("[") {
		spec.Bare = true
		return spec, nil
	}
	star, first, err := p.parseDimElement()
	if err != nil {
		return nil, err
	}
	if p.acceptSymbol(":") {
		spec.Start, spec.StarStart = first, star
		star2, stop, err := p.parseDimElement()
		if err != nil {
			return nil, err
		}
		spec.End, spec.StarEnd = stop, star2
		if p.acceptSymbol(":") {
			star3, step, err := p.parseDimElement()
			if err != nil {
				return nil, err
			}
			spec.Step, spec.StarStep = step, star3
		}
	} else {
		if star {
			spec.StarEnd = true
			spec.StarStart = true
		} else {
			spec.Size = first
		}
	}
	if err := p.expectSymbol("]"); err != nil {
		return nil, err
	}
	return spec, nil
}

func (p *Parser) parseDimElement() (star bool, e ast.Expr, err error) {
	if p.acceptSymbol("*") {
		return true, nil, nil
	}
	e, err = p.parseExpr()
	return false, e, err
}

func (p *Parser) parseCreateSequence() (ast.Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	out := &ast.CreateSequence{Name: name, Typ: value.Int}
	if p.acceptKeyword("AS") {
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		out.Typ = t
	}
	for {
		switch {
		case p.acceptSoft("START"):
			if err := p.expectSoft("WITH"); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out.Start = e
		case p.acceptSoft("INCREMENT"):
			if err := p.expectSoft("BY"); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out.Increment = e
		case p.acceptSoft("MAXVALUE"):
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out.MaxValue = e
		default:
			return out, nil
		}
	}
}

func (p *Parser) parseCreateFunction() (ast.Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	out := &ast.CreateFunction{Name: name}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if !p.isSymbol(")") {
		for {
			prm, err := p.parseParamDef()
			if err != nil {
				return nil, err
			}
			out.Params = append(out.Params, *prm)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("RETURNS"); err != nil {
		return nil, err
	}
	ret, err := p.parseReturnsDef()
	if err != nil {
		return nil, err
	}
	out.Returns = *ret
	switch {
	case p.acceptKeyword("EXTERNAL"):
		if err := p.expectSoft("NAME"); err != nil {
			return nil, err
		}
		t := p.cur()
		if t.Kind != lexer.Str {
			return nil, p.errf("expected string after EXTERNAL NAME")
		}
		p.advance()
		out.External = t.Text
	case p.acceptKeyword("BEGIN"):
		body, err := p.parsePSMBlock()
		if err != nil {
			return nil, err
		}
		out.Body = body
	case p.acceptKeyword("RETURN"):
		r, err := p.parsePSMReturn()
		if err != nil {
			return nil, err
		}
		out.Body = []ast.PSMStmt{r}
	default:
		return nil, p.errf("expected EXTERNAL NAME, BEGIN, or RETURN in CREATE FUNCTION")
	}
	return out, nil
}

func (p *Parser) parseParamDef() (*ast.ParamDef, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	prm := &ast.ParamDef{Name: name}
	if p.acceptKeyword("ARRAY") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColDef()
			if err != nil {
				return nil, err
			}
			prm.Array = append(prm.Array, *col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		prm.Type = value.Array
		return prm, nil
	}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	prm.Type = t
	return prm, nil
}

func (p *Parser) parseReturnsDef() (*ast.ReturnsDef, error) {
	ret := &ast.ReturnsDef{}
	if p.acceptKeyword("ARRAY") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColDef()
			if err != nil {
				return nil, err
			}
			ret.Array = append(ret.Array, *col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ret.Type = value.Array
		return ret, nil
	}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	ret.Type = t
	return ret, nil
}

func (p *Parser) parseAlter() (ast.Statement, error) {
	p.advance() // ALTER
	if err := p.expectKeyword("ARRAY"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	out := &ast.AlterArray{Name: name}
	switch {
	case p.acceptKeyword("ALTER"):
		dim, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("DIMENSION"); err != nil {
			return nil, err
		}
		spec, err := p.parseDimSpec()
		if err != nil {
			return nil, err
		}
		out.AlterDimName, out.AlterDim = dim, spec
	case p.acceptKeyword("ADD"):
		col, err := p.parseColDef()
		if err != nil {
			return nil, err
		}
		out.AddCol = col
	default:
		return nil, p.errf("expected ALTER <dim> DIMENSION or ADD <column> in ALTER ARRAY")
	}
	return out, nil
}

func (p *Parser) parseDrop() (ast.Statement, error) {
	p.advance() // DROP
	var kind string
	switch {
	case p.acceptKeyword("TABLE"):
		kind = "TABLE"
	case p.acceptKeyword("ARRAY"):
		kind = "ARRAY"
	case p.acceptKeyword("SEQUENCE"):
		kind = "SEQUENCE"
	case p.acceptKeyword("FUNCTION"):
		kind = "FUNCTION"
	default:
		return nil, p.errf("expected TABLE, ARRAY, SEQUENCE or FUNCTION after DROP")
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &ast.Drop{Kind: kind, Name: name}, nil
}

// --- DML --------------------------------------------------------------------

func (p *Parser) parseInsert() (ast.Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	out := &ast.Insert{Table: name}
	// Optional column list: only when followed by an ident and the
	// whole parenthesized group precedes VALUES or SELECT.
	if p.isSymbol("(") && p.peek(1).Kind == lexer.Ident {
		// Look ahead for a bare ident list.
		save := p.pos
		cols, err := p.parseIdentList()
		if err == nil && (p.isKeyword("VALUES") || p.isKeyword("SELECT")) {
			out.Columns = cols
		} else {
			p.pos = save
		}
	}
	switch {
	case p.acceptKeyword("VALUES"):
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var row []ast.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			out.Values = append(out.Values, row)
			if !p.acceptSymbol(",") {
				break
			}
		}
	case p.isKeyword("SELECT"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		out.Select = sel
	default:
		return nil, p.errf("expected VALUES or SELECT in INSERT")
	}
	return out, nil
}

func (p *Parser) parseUpdate() (ast.Statement, error) {
	p.advance() // UPDATE
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	out := &ast.Update{Table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		asg, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		out.Sets = append(out.Sets, *asg)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out.Where = e
	}
	return out, nil
}

// parseAssign parses target = value where target is a column name or
// an array reference (img[x][y].v).
func (p *Parser) parseAssign() (*ast.Assign, error) {
	target, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	switch target.(type) {
	case *ast.Ident, *ast.ArrayRef:
	default:
		return nil, p.errf("invalid assignment target")
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.Assign{Target: target, Value: val}, nil
}

func (p *Parser) parseSetStmt() (ast.Statement, error) {
	p.advance() // SET
	asg, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	return &ast.SetStmt{Assign: *asg}, nil
}

func (p *Parser) parseDelete() (ast.Statement, error) {
	p.advance() // DELETE
	// FROM is optional in the paper's examples (DELETE tmp WHERE ...).
	p.acceptKeyword("FROM")
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	out := &ast.Delete{Table: name}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out.Where = e
	}
	return out, nil
}

// --- PSM --------------------------------------------------------------------

// parsePSMBlock parses statements up to END (consuming it).
func (p *Parser) parsePSMBlock() ([]ast.PSMStmt, error) {
	var out []ast.PSMStmt
	for {
		for p.acceptSymbol(";") {
		}
		if p.acceptKeyword("END") {
			return out, nil
		}
		s, err := p.parsePSMStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.acceptSymbol(";") && !p.isKeyword("END") {
			return nil, p.errf("expected ';' in function body, found %s", p.cur())
		}
	}
}

func (p *Parser) parsePSMStmt() (ast.PSMStmt, error) {
	switch {
	case p.acceptKeyword("DECLARE"):
		d := &ast.Declare{}
		for {
			name, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			d.Names = append(d.Names, name)
			// Each name may carry its own type: DECLARE s1 FLOAT, s2 FLOAT.
			if !p.isSymbol(",") && !p.isSymbol(";") {
				t, err := p.parseType()
				if err != nil {
					return nil, err
				}
				d.Type = t
			}
			if !p.acceptSymbol(",") {
				break
			}
		}
		return d, nil
	case p.acceptKeyword("SET"):
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ast.SetVar{Name: name, Value: e}, nil
	case p.acceptKeyword("IF"):
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		stmt := &ast.If{Cond: cond}
		for !p.isKeyword("ELSE") && !p.isKeyword("END") {
			s, err := p.parsePSMStmt()
			if err != nil {
				return nil, err
			}
			stmt.Then = append(stmt.Then, s)
			if !p.acceptSymbol(";") {
				break
			}
		}
		if p.acceptKeyword("ELSE") {
			for !p.isKeyword("END") {
				s, err := p.parsePSMStmt()
				if err != nil {
					return nil, err
				}
				stmt.Else = append(stmt.Else, s)
				if !p.acceptSymbol(";") {
					break
				}
			}
		}
		if err := p.expectKeyword("END"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("IF"); err != nil {
			return nil, err
		}
		return stmt, nil
	case p.acceptKeyword("RETURN"):
		return p.parsePSMReturn()
	default:
		return nil, p.errf("unexpected token %s in function body", p.cur())
	}
}

func (p *Parser) parsePSMReturn() (ast.PSMStmt, error) {
	if p.isKeyword("SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ast.Return{Select: sel}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.Return{Expr: e}, nil
}
