package exec

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/array"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sql/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// ceilDiv rounds the quotient toward +inf (b > 0).
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

// resolveArrayBase finds the array an ArrayRef talks about: a PSM
// local / function parameter holding an array value, a catalog array,
// or a computed base (nested access like next(samples[t]).data never
// reaches here — the engine rewrites NEXT earlier).
func (e *Engine) resolveArrayBase(base ast.Expr, env expr.Env) (*array.Array, error) {
	switch b := base.(type) {
	case *ast.Ident:
		if b.Table == "" {
			if v, ok := env.Lookup("", b.Name); ok && v.Typ == value.Array && !v.Null {
				if a, ok := v.A.(*array.Array); ok {
					return a, nil
				}
			}
		}
		if a, ok := e.cat().Array(b.Name); ok {
			return a, nil
		}
		// A qualified name (alias.attr) can name a row's nested array.
		if v, ok := env.Lookup(b.Table, b.Name); ok && v.Typ == value.Array && !v.Null {
			if a, ok := v.A.(*array.Array); ok {
				return a, nil
			}
		}
		return nil, fmt.Errorf("no such array %s", b.String())
	default:
		v, err := e.Ev.Eval(base, env)
		if err != nil {
			return nil, err
		}
		if v.Typ == value.Array && !v.Null {
			if a, ok := v.A.(*array.Array); ok {
				return a, nil
			}
		}
		return nil, fmt.Errorf("expression is not an array")
	}
}

// dimSel is a resolved indexer against one dimension: either a point
// or a half-open [lo, hi) range (step-aware). sparse marks order-only
// dimensions (timestamp dims with no grid step), whose ranges expand
// over the existing coordinate values rather than a stepped sequence.
type dimSel struct {
	point  bool
	val    int64
	lo, hi int64 // half-open
	step   int64
	full   bool // [*]
	sparse bool
}

// selBound is one bound expression of an indexer; a nil x means the
// bound is absent. Structural grouping resolves the bounds that are
// linear in one anchor variable once per statement (lin: anchor[av] + c,
// or the constant c when av < 0) and evaluates only the others per
// anchor.
type selBound struct {
	x   ast.Expr
	lin bool
	av  int
	c   int64
}

// selSpec is one dimension's indexer with its bounds still open: sel
// holds everything the bounds do not decide (the kind of selection, the
// defaults of absent bounds), resolve fills in the rest.
type selSpec struct {
	sel               dimSel
	val, lo, hi, step selBound
	// snap marks a plain [lo:hi] on a stepped grid: a pure range that
	// admits the grid's own cells in [lo, hi). It walks the grid stride
	// with lo snapped up onto the grid phase — anchoring the dimension
	// step at an off-phase slice bound would reject every existing cell.
	snap                bool
	gridStart, gridStep int64
}

// indexerSpecs aligns the indexers of an array reference with the
// array's dimensions in declaration order.
func indexerSpecs(a *array.Array, ixs []ast.Indexer) ([]selSpec, error) {
	if len(ixs) > len(a.Schema.Dims) {
		return nil, fmt.Errorf("array %s has %d dimensions, got %d indexers", a.Name, len(a.Schema.Dims), len(ixs))
	}
	out := make([]selSpec, len(a.Schema.Dims))
	// The bounding box is only needed for open-ended selections; point
	// indexers (the convolution anchor lists) skip the computation.
	var lo, hi []int64
	boundsDone := false
	bounds := func() bool {
		if !boundsDone {
			lo, hi, _ = a.BoundingBox()
			boundsDone = true
		}
		return lo != nil
	}
	for di, d := range a.Schema.Dims {
		sparse := d.Step == 0
		step := d.Step
		if step <= 0 {
			step = 1
		}
		sp := &out[di]
		var ix ast.Indexer
		if di < len(ixs) { // unindexed trailing dimensions select everything
			ix = ixs[di]
		}
		switch {
		case ix.Point != nil && !ix.Star:
			sp.sel = dimSel{point: true, step: step, sparse: sparse}
			sp.val.x = ix.Point
		case ix.Range && !ix.Star:
			sp.sel = dimSel{step: 1, sparse: sparse}
			sp.lo.x, sp.hi.x, sp.step.x = ix.Start, ix.Stop, ix.Step
			if (ix.Start == nil || ix.Stop == nil) && bounds() {
				sp.sel.lo, sp.sel.hi = lo[di], hi[di]+step
			}
			if ix.Step == nil && !sparse && step > 1 && d.Start != array.UnboundedLow {
				sp.snap, sp.gridStart, sp.gridStep = true, d.Start, step
			}
		default:
			sp.sel = dimSel{full: true, step: step, sparse: sparse}
			if bounds() {
				sp.sel.lo, sp.sel.hi = lo[di], hi[di]+step
			}
		}
	}
	return out, nil
}

// resolve evaluates the open bounds through eval and returns the
// selection.
func (sp *selSpec) resolve(eval func(b *selBound) (int64, error)) (s dimSel, err error) {
	s = sp.sel
	if s.full {
		return s, nil
	}
	if s.point {
		s.val, err = eval(&sp.val)
		return s, err
	}
	if sp.lo.x != nil {
		if s.lo, err = eval(&sp.lo); err != nil {
			return s, err
		}
	}
	if sp.hi.x != nil {
		if s.hi, err = eval(&sp.hi); err != nil {
			return s, err
		}
	}
	switch {
	case sp.step.x != nil:
		// An explicit [lo:hi:step] stride is anchored at lo.
		v, err := eval(&sp.step)
		if err != nil {
			return s, err
		}
		if v > 0 {
			s.step = v
		}
	case sp.snap:
		s.step = sp.gridStep
		if snapped := sp.gridStart + ceilDiv(s.lo-sp.gridStart, sp.gridStep)*sp.gridStep; snapped > s.lo {
			s.lo = snapped
		}
	}
	return s, nil
}

// resolveIndexers evaluates the indexer expressions of ref against
// env, aligning them with the array's dimensions in declaration order.
func (e *Engine) resolveIndexers(a *array.Array, ixs []ast.Indexer, env expr.Env) ([]dimSel, error) {
	specs, err := indexerSpecs(a, ixs)
	if err != nil {
		return nil, err
	}
	out := make([]dimSel, len(specs))
	for di := range specs {
		out[di], err = specs[di].resolve(func(b *selBound) (int64, error) {
			v, err := e.Ev.Eval(b.x, env)
			return v.AsInt(), err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalArrayRef resolves an array reference in expression position:
// a full point access returns the cell attribute (NULL when out of
// bounds or a hole, per §3.1); any range produces a sub-array value.
func (e *Engine) evalArrayRef(ref *ast.ArrayRef, env expr.Env) (value.Value, error) {
	a, err := e.resolveArrayBase(ref.Base, env)
	if err != nil {
		return value.Value{}, err
	}
	sels, err := e.resolveIndexers(a, ref.Indexers, env)
	if err != nil {
		return value.Value{}, err
	}
	allPoint := true
	for _, s := range sels {
		if !s.point {
			allPoint = false
			break
		}
	}
	if allPoint {
		coords := make([]int64, len(sels))
		for i, s := range sels {
			coords[i] = s.val
		}
		ai, err := pickAttr(a, ref.Attr)
		if err != nil {
			return value.Value{}, err
		}
		return a.Get(coords, ai), nil
	}
	sub, err := e.sliceArray(a, sels, ref.Attr)
	if err != nil {
		return value.Value{}, err
	}
	return value.NewArray(sub), nil
}

// dimValuesCache memoizes the sorted distinct coordinate values of an
// array's order-only (sparse) dimensions, so range expansion over a
// timestamp dimension walks existing samples instead of every
// microsecond between the bounds.
type dimValuesCache struct {
	// ctx is the in-flight statement's context: the distinct-value
	// scan below is chunk-scale on large arrays, so it polls like any
	// other scan. May be nil (bounds known without scanning).
	ctx  context.Context
	vals map[int][]int64
}

func newDimValuesCache(ctx context.Context) *dimValuesCache {
	return &dimValuesCache{ctx: ctx, vals: make(map[int][]int64)}
}

// dimValuesProvider is implemented by stores that maintain their own
// sorted per-dimension value index (the tabular scheme).
type dimValuesProvider interface {
	DimValues(di int) []int64
}

func (c *dimValuesCache) values(a *array.Array, di int) ([]int64, error) {
	if v, ok := c.vals[di]; ok {
		return v, nil
	}
	if p, ok := a.Store.(dimValuesProvider); ok {
		v := p.DimValues(di)
		c.vals[di] = v
		return v, nil
	}
	set := make(map[int64]struct{})
	visited := 0
	var scanErr error
	a.Store.Scan(func(coords []int64, _ []value.Value) bool {
		visited++
		if visited&1023 == 0 && c.ctx != nil {
			if err := c.ctx.Err(); err != nil {
				scanErr = err
				return false
			}
		}
		set[coords[di]] = struct{}{}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	c.vals[di] = out
	return out, nil
}

// inRange returns the cached values within [lo, hi).
func (c *dimValuesCache) inRange(a *array.Array, di int, lo, hi int64) ([]int64, error) {
	vals, err := c.values(a, di)
	if err != nil {
		return nil, err
	}
	i, _ := slices.BinarySearch(vals, lo)
	j, _ := slices.BinarySearch(vals, hi)
	return vals[i:j], nil
}

// selCoords expands one resolved dimension selection into its admitted
// coordinate values, in ascending order: a point yields its value,
// sparse (order-only) ranges list the existing coordinates via the
// cache, and grid ranges step from lo by the selection stride.
// This is the single definition of [lo:hi:step] expansion, shared by
// expression-position slicing (sliceArray) and structural tiling
// (tileWorker.expand); the scan path's matcher (selContains) mirrors
// it, so FROM-clause slicing admits exactly the coordinates expanded
// here. buf is scratch the result may be built in; a sparse range is a
// view of the cache instead.
func selCoords(s dimSel, a *array.Array, di int, cache *dimValuesCache, buf []int64) ([]int64, error) {
	if s.point {
		return append(buf[:0], s.val), nil
	}
	if s.sparse {
		return cache.inRange(a, di, s.lo, s.hi)
	}
	buf = buf[:0]
	for v, step := s.lo, selStep(s); v < s.hi; v += step {
		buf = append(buf, v)
	}
	return buf, nil
}

// pickAttr resolves an attribute name; "" selects the single attribute
// of one-attribute arrays (payload[x][y] form).
func pickAttr(a *array.Array, name string) (int, error) {
	if name == "" {
		if len(a.Schema.Attrs) == 1 {
			return 0, nil
		}
		return -1, fmt.Errorf("array %s has %d attributes; qualify with .attr", a.Name, len(a.Schema.Attrs))
	}
	ai := a.Schema.AttrIndex(name)
	if ai < 0 {
		return -1, fmt.Errorf("array %s has no attribute %s", a.Name, name)
	}
	return ai, nil
}

// sliceArray carves a sub-array: point dimensions collapse, ranges
// restrict, '*' keeps the whole dimension. Index values are preserved
// (the minimal bounding box of the answers, §4.1); function-parameter
// binding rebases when the parameter declares fixed bounds.
func (e *Engine) sliceArray(a *array.Array, sels []dimSel, attr string) (*array.Array, error) {
	var dims []array.Dimension
	var keep []int // source dim index per kept dim
	sparseSlice := false
	for di, s := range sels {
		if s.point {
			continue
		}
		d := a.Schema.Dims[di]
		nd := array.Dimension{Name: d.Name, Typ: d.Typ, Start: s.lo, End: s.hi, Step: s.step}
		if s.sparse {
			// Order-only dimensions keep their gridless nature.
			nd.Step = 0
			sparseSlice = true
		}
		if s.full && s.hi == 0 && s.lo == 0 && !d.Bounded() {
			nd.Start, nd.End = array.UnboundedLow, array.UnboundedHigh
		}
		dims = append(dims, nd)
		keep = append(keep, di)
	}
	attrs := a.Schema.Attrs
	attrMap := make([]int, 0, len(attrs))
	if attr != "" {
		ai := a.Schema.AttrIndex(attr)
		if ai < 0 {
			return nil, fmt.Errorf("array %s has no attribute %s", a.Name, attr)
		}
		attrs = []array.Attr{a.Schema.Attrs[ai]}
		attrMap = append(attrMap, ai)
	} else {
		for i := range attrs {
			attrMap = append(attrMap, i)
		}
	}
	// Strip CHECK/default machinery from the slice schema: the values
	// are copied as-is.
	outAttrs := make([]array.Attr, len(attrs))
	for i, at := range attrs {
		outAttrs[i] = array.Attr{Name: at.Name, Typ: at.Typ, Default: value.NewNull(at.Typ), Nested: at.Nested}
	}
	outDims := make([]array.Dimension, len(dims))
	copy(outDims, dims)
	sch := array.Schema{Dims: outDims, Attrs: outAttrs}
	var st array.Store
	var err error
	if sparseSlice {
		st, err = storage.NewTabular(sch)
	} else {
		st, err = storage.New(sch, storage.Hints{})
	}
	if err != nil {
		return nil, err
	}
	sub := &array.Array{Name: a.Name + "_slice", Schema: sch, Store: st}
	// Walk the selection cross product, reading through a.Get so
	// out-of-bounds positions arrive as NULL (holes in the slice).
	// Sparse (order-only) dimensions expand over existing coordinate
	// values, never over the raw index range.
	cache := newDimValuesCache(e.ctx())
	src := make([]int64, len(sels))
	dst := make([]int64, len(dims))
	var walk func(di int) error
	walk = func(di int) error {
		if di == len(sels) {
			for oi, ai := range attrMap {
				v := a.Get(src, ai)
				if v.Null {
					continue
				}
				if err := st.Set(dst, oi, v); err != nil {
					return err
				}
			}
			return nil
		}
		s := sels[di]
		if s.point {
			src[di] = s.val
			return walk(di + 1)
		}
		ki := 0
		for ; ki < len(keep); ki++ {
			if keep[ki] == di {
				break
			}
		}
		vs, err := selCoords(s, a, di, cache, nil)
		if err != nil {
			return err
		}
		for _, v := range vs {
			src[di], dst[ki] = v, v
			if err := walk(di + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	return sub, nil
}

// rebaseForParam copies an array value into the shape a function
// parameter declares, mapping ordinals (the 3x3 conv window arrives
// indexed [0..2] regardless of where it was cut, §7.1.2).
func (e *Engine) rebaseForParam(src *array.Array, paramSchema *array.Schema) (*array.Array, error) {
	if len(paramSchema.Dims) != len(src.Schema.Dims) {
		return nil, fmt.Errorf("parameter expects %d dimensions, got %d", len(paramSchema.Dims), len(src.Schema.Dims))
	}
	srcLo, _, _ := src.BoundingBox() // unknown only when src has no cell to move
	out, err := e.newDMLScan(src, nil, nil, false).rebuild(*paramSchema, func(dim int, c int64) (int64, bool) {
		return paramSchema.Dims[dim].Index((c - srcLo[dim]) / max(src.Schema.Dims[dim].Step, 1)), true
	}, nil)
	if err != nil {
		return nil, err
	}
	out.a.Name = src.Name + "_param"
	return out.a, nil
}

// callUDF resolves a non-builtin function call: catalog white-box
// (PSM) and black-box (EXTERNAL NAME) functions.
func (e *Engine) callUDF(name string, args []value.Value, env expr.Env) (value.Value, error) {
	f, ok := e.cat().Function(name)
	if !ok {
		if strings.EqualFold(name, "NEXT") {
			return value.Value{}, fmt.Errorf("next() requires a scanned time-series source")
		}
		return value.Value{}, fmt.Errorf("unknown function %s", name)
	}
	bound, err := e.bindParams(f, args)
	if err != nil {
		return value.Value{}, err
	}
	if f.External != nil {
		// Black-box call (§6.2): the registered Go implementation does
		// its own layout marshaling; arguments arrive rebased.
		return f.External(bound)
	}
	return e.callPSM(f, bound)
}

// bindParams coerces scalar arguments to the declared parameter types
// and rebases array arguments onto the declared parameter shape when
// the parameter carries fixed dimension bounds (the conv 3x3 window
// of §7.1.2 arrives indexed [0..2] wherever it was cut).
func (e *Engine) bindParams(f *catalog.Function, args []value.Value) ([]value.Value, error) {
	def := f.Def
	if def == nil || len(def.Params) == 0 {
		return args, nil
	}
	if len(args) != len(def.Params) {
		return nil, fmt.Errorf("function %s expects %d argument(s), got %d", f.Name, len(def.Params), len(args))
	}
	out := make([]value.Value, len(args))
	for i, prm := range def.Params {
		v := args[i]
		if prm.Type == value.Array {
			if v.Null {
				out[i] = v
				continue
			}
			src, ok := v.A.(*array.Array)
			if !ok {
				return nil, fmt.Errorf("function %s: argument %s is not an array", f.Name, prm.Name)
			}
			sch, err := e.compileSchema(prm.Array, &baseEnv{})
			if err != nil {
				return nil, fmt.Errorf("function %s parameter %s: %w", f.Name, prm.Name, err)
			}
			// Unbounded parameter dimensions inherit the argument's
			// bounds; bounded ones force a rebase onto the declared
			// origin. Either way the declared names apply (the
			// function body addresses a[i][j] regardless of where the
			// argument was cut from).
			if len(sch.Dims) != len(src.Schema.Dims) {
				return nil, fmt.Errorf("function %s parameter %s: expects %d dimensions, got %d",
					f.Name, prm.Name, len(sch.Dims), len(src.Schema.Dims))
			}
			for di := range sch.Dims {
				if !sch.Dims[di].Bounded() {
					lo, hi, err := src.BoundingBox()
					if err == nil {
						step := src.Schema.Dims[di].Step
						if step <= 0 {
							step = 1
						}
						sch.Dims[di].Start = lo[di]
						sch.Dims[di].End = hi[di] + step
						sch.Dims[di].Step = step
					}
				}
			}
			rb, err := e.rebaseForParam(src, sch)
			if err != nil {
				return nil, err
			}
			out[i] = value.NewArray(rb)
			continue
		}
		cv, err := value.Coerce(v, prm.Type)
		if err != nil {
			return nil, fmt.Errorf("function %s parameter %s: %w", f.Name, prm.Name, err)
		}
		out[i] = cv
	}
	return out, nil
}
