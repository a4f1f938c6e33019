package exec

import (
	"strings"
	"testing"

	"repro/internal/sql/parser"
	"repro/internal/value"
)

// run executes a script and fails the test on error.
func run(t *testing.T, e *Engine, sql string, params map[string]value.Value) *Dataset {
	t.Helper()
	stmts, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse error: %v\nSQL: %s", err, sql)
	}
	var last *Dataset
	for _, s := range stmts {
		ds, err := e.Exec(s, params)
		if err != nil {
			t.Fatalf("exec error: %v\nSQL: %s", err, sql)
		}
		last = ds
	}
	return last
}

func newMatrix(t *testing.T) *Engine {
	e := New()
	run(t, e, `
		CREATE ARRAY matrix (
			x INTEGER DIMENSION[4],
			y INTEGER DIMENSION[4],
			v FLOAT DEFAULT 0.0);
		UPDATE matrix SET v = x * 4 + y;
	`, nil)
	return e
}

func TestCreateArrayDefaults(t *testing.T) {
	e := New()
	run(t, e, `CREATE ARRAY a1 (x INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`, nil)
	ds := run(t, e, `SELECT x, v FROM a1`, nil)
	if ds.NumRows() != 4 {
		t.Fatalf("expected 4 cells, got %d", ds.NumRows())
	}
	for r := 0; r < 4; r++ {
		if got := ds.Get(r, 1).AsFloat(); got != 0 {
			t.Errorf("cell %d: default %v, want 0", r, got)
		}
	}
}

func TestSequenceDimension(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE SEQUENCE rng AS INTEGER START WITH 0 INCREMENT BY 1 MAXVALUE 3;
		CREATE ARRAY a3 (x INTEGER DIMENSION rng, v FLOAT DEFAULT 0.0);
	`, nil)
	ds := run(t, e, `SELECT x FROM a3`, nil)
	if ds.NumRows() != 4 {
		t.Fatalf("sequence dimension size: got %d rows, want 4", ds.NumRows())
	}
}

func TestGuardedUpdateCase(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `UPDATE matrix SET v = CASE WHEN x>y THEN x + y WHEN x<y THEN x - y ELSE 0 END`, nil)
	ds := run(t, e, `SELECT v FROM matrix WHERE x = 2 AND y = 1`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 3 {
		t.Errorf("x>y cell: got %v, want 3", got)
	}
	ds = run(t, e, `SELECT v FROM matrix WHERE x = 1 AND y = 3`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != -2 {
		t.Errorf("x<y cell: got %v, want -2", got)
	}
	ds = run(t, e, `SELECT v FROM matrix WHERE x = 2 AND y = 2`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 0 {
		t.Errorf("diagonal cell: got %v, want 0", got)
	}
}

func TestDimensionCheckStripes(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY stripes (
			x INTEGER DIMENSION[4] CHECK(MOD(x,2) = 1),
			y INTEGER DIMENSION[4],
			v FLOAT DEFAULT 0.0);
	`, nil)
	ds := run(t, e, `SELECT x, y, v FROM stripes`, nil)
	if ds.NumRows() != 8 {
		t.Fatalf("stripes: got %d cells, want 8 (x in {1,3})", ds.NumRows())
	}
	for r := 0; r < ds.NumRows(); r++ {
		if x := ds.Get(r, 0).I; x != 1 && x != 3 {
			t.Errorf("stripes row %d: x=%d not odd", r, x)
		}
	}
}

func TestDiagonalCheck(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY diagonal (
			x INTEGER DIMENSION[4],
			y INTEGER DIMENSION[4] CHECK(x = y),
			v FLOAT DEFAULT 0.0);
		UPDATE diagonal SET v = x + y;
	`, nil)
	ds := run(t, e, `SELECT x, y, v FROM diagonal`, nil)
	if ds.NumRows() != 4 {
		t.Fatalf("diagonal: got %d cells, want 4", ds.NumRows())
	}
	for r := 0; r < 4; r++ {
		if ds.Get(r, 0).I != ds.Get(r, 1).I {
			t.Errorf("off-diagonal cell leaked: %v", ds.Row(r))
		}
		if got := ds.Get(r, 2).AsFloat(); got != float64(2*ds.Get(r, 0).I) {
			t.Errorf("diagonal value: got %v", got)
		}
	}
}

func TestContentCheckSparse(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY sparse (
			x INTEGER DIMENSION[4],
			y INTEGER DIMENSION[4],
			v FLOAT DEFAULT 0.0 CHECK(v>0));
		UPDATE sparse SET v = x - 1;
	`, nil)
	// v = x-1: x=0 -> -1 (nullified), x=1 -> 0 (nullified), x>=2 -> kept.
	ds := run(t, e, `SELECT x, y, v FROM sparse`, nil)
	if ds.NumRows() != 8 {
		t.Fatalf("sparse: got %d cells, want 8", ds.NumRows())
	}
	for r := 0; r < ds.NumRows(); r++ {
		if v := ds.Get(r, 2).AsFloat(); v <= 0 {
			t.Errorf("CHECK(v>0) violated: %v", v)
		}
	}
}

func TestCellSelectionAndBounds(t *testing.T) {
	e := newMatrix(t)
	ds := run(t, e, `SELECT x, y, v FROM matrix WHERE v > 2`, nil)
	if ds.NumRows() != 13 {
		t.Fatalf("WHERE v>2: got %d rows, want 13", ds.NumRows())
	}
	// Dimension-qualified projection keeps the flags.
	ds = run(t, e, `SELECT [x], [y], v FROM matrix WHERE v > 2`, nil)
	if !ds.Cols[0].IsDim || !ds.Cols[1].IsDim || ds.Cols[2].IsDim {
		t.Fatalf("dimension flags wrong: %+v", ds.Cols)
	}
}

func TestPointSlicing(t *testing.T) {
	e := newMatrix(t)
	ds := run(t, e, `SELECT matrix[1][1].v`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 5 {
		t.Errorf("matrix[1][1].v = %v, want 5", got)
	}
	// Out-of-bounds point access reads NULL.
	ds = run(t, e, `SELECT matrix[9][9].v`, nil)
	if !ds.Get(0, 0).Null {
		t.Errorf("out-of-bounds access should be NULL, got %v", ds.Get(0, 0))
	}
}

func TestRangeSlicingExpandsToCells(t *testing.T) {
	e := newMatrix(t)
	ds := run(t, e, `SELECT matrix[0:2][0:2].v`, nil)
	if ds.NumRows() != 4 {
		t.Fatalf("2x2 slice: got %d cells, want 4", ds.NumRows())
	}
}

func TestArrayLiteral(t *testing.T) {
	e := New()
	ds := run(t, e, `SELECT ARRAY (1,2,3,4)`, nil)
	if ds.NumRows() != 4 {
		t.Fatalf("ARRAY(1,2,3,4): got %d cells, want 4", ds.NumRows())
	}
	ds = run(t, e, `SELECT ARRAY((1,2),(3,4))`, nil)
	if ds.NumRows() != 4 {
		t.Fatalf("ARRAY((1,2),(3,4)): got %d cells, want 4", ds.NumRows())
	}
	if ds.NumCols() != 3 {
		t.Fatalf("2-D literal should have x, y, v columns; got %d", ds.NumCols())
	}
}

func TestOverlappingTiling(t *testing.T) {
	e := newMatrix(t)
	// 16 overlapping 2x2 tiles on a 4x4 matrix (Fig. 3).
	ds := run(t, e, `SELECT [x], [y], avg(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2]`, nil)
	if ds.NumRows() != 16 {
		t.Fatalf("overlapping tiling: got %d groups, want 16", ds.NumRows())
	}
	// Anchor (0,0): cells {0,1,4,5} -> avg 2.5.
	found := false
	for r := 0; r < ds.NumRows(); r++ {
		if ds.Get(r, 0).I == 0 && ds.Get(r, 1).I == 0 {
			found = true
			if got := ds.Get(r, 2).AsFloat(); got != 2.5 {
				t.Errorf("tile(0,0) avg = %v, want 2.5", got)
			}
		}
	}
	if !found {
		t.Fatal("anchor (0,0) missing")
	}
	// Border anchor (3,3): single cell 15.
	for r := 0; r < ds.NumRows(); r++ {
		if ds.Get(r, 0).I == 3 && ds.Get(r, 1).I == 3 {
			if got := ds.Get(r, 2).AsFloat(); got != 15 {
				t.Errorf("tile(3,3) avg = %v, want 15 (outer NULLs ignored)", got)
			}
		}
	}
}

func TestDistinctTiling(t *testing.T) {
	e := newMatrix(t)
	ds := run(t, e, `SELECT [x], [y], avg(v) FROM matrix GROUP BY DISTINCT matrix[x:x+2][y:y+2]`, nil)
	if ds.NumRows() != 4 {
		t.Fatalf("DISTINCT tiling: got %d groups, want 4", ds.NumRows())
	}
}

func TestRowChecksumTiling(t *testing.T) {
	e := newMatrix(t)
	ds := run(t, e, `SELECT [x], sum(v) FROM matrix GROUP BY DISTINCT matrix[x][y:*]`, nil)
	if ds.NumRows() != 4 {
		t.Fatalf("row checksums: got %d rows, want 4", ds.NumRows())
	}
	// Row x: sum of 4x, 4x+1, 4x+2, 4x+3 = 16x + 6.
	for r := 0; r < 4; r++ {
		x := ds.Get(r, 0).I
		if got := ds.Get(r, 1).AsFloat(); got != float64(16*x+6) {
			t.Errorf("row %d checksum = %v, want %d", x, got, 16*x+6)
		}
	}
}

func TestConvolutionWithEmbedding(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `
		CREATE ARRAY vmatrix (
			x INTEGER DIMENSION[-1:5],
			y INTEGER DIMENSION[-1:5],
			v FLOAT DEFAULT 0.0);
		INSERT INTO vmatrix SELECT [x], [y], v FROM matrix;
	`, nil)
	ds := run(t, e, `
		SELECT x, y, AVG(v)
		FROM vmatrix[0:4][0:4]
		GROUP BY vmatrix[x][y], vmatrix[x-1][y], vmatrix[x+1][y],
		         vmatrix[x][y-1], vmatrix[x][y+1]`, nil)
	if ds.NumRows() != 16 {
		t.Fatalf("convolution anchors: got %d, want 16", ds.NumRows())
	}
	// Center (1,1): cells 5,1,9,4,6 -> avg 5.
	for r := 0; r < ds.NumRows(); r++ {
		if ds.Get(r, 0).I == 1 && ds.Get(r, 1).I == 1 {
			if got := ds.Get(r, 2).AsFloat(); got != 5 {
				t.Errorf("conv(1,1) = %v, want 5", got)
			}
		}
	}
}

func TestTransposedEmbedding(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `
		CREATE ARRAY tm (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0);
		INSERT INTO tm SELECT [y], [x], v FROM matrix;
	`, nil)
	// tm[y][x] = matrix[x][y]: tm[1][2] should equal matrix[2][1] = 9.
	ds := run(t, e, `SELECT tm[1][2].v`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 9 {
		t.Errorf("transpose cell = %v, want 9", got)
	}
}

func TestValueGroupBy(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE TABLE events (x INTEGER, y INTEGER);
		INSERT INTO events VALUES (1, 1), (1, 1), (2, 3);
	`, nil)
	ds := run(t, e, `SELECT x, y, count(*) FROM events GROUP BY x, y`, nil)
	if ds.NumRows() != 2 {
		t.Fatalf("GROUP BY x,y: got %d groups, want 2", ds.NumRows())
	}
}

func TestXRayBinning(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE TABLE events (x INTEGER, y INTEGER);
		INSERT INTO events VALUES (0,0),(0,0),(0,1),(17,17),(17,17),(17,17);
		CREATE ARRAY ximage (
			x INTEGER DIMENSION,
			y INTEGER DIMENSION,
			v INTEGER DEFAULT 0);
		INSERT INTO ximage SELECT [x], [y], count(*) FROM events GROUP BY x, y;
	`, nil)
	ds := run(t, e, `SELECT v FROM ximage WHERE x = 0 AND y = 0`, nil)
	if got := ds.Get(0, 0).I; got != 2 {
		t.Fatalf("bin(0,0) = %d, want 2", got)
	}
	// Re-binning 16x via tiling.
	ds = run(t, e, `SELECT [x/16], [y/16], SUM(v) FROM ximage GROUP BY DISTINCT ximage[x:x+16][y:y+16]`, nil)
	if ds.NumRows() < 1 {
		t.Fatal("rebinned image is empty")
	}
}

func TestUnionChessboard(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE SEQUENCE rng AS INTEGER START WITH 0 INCREMENT BY 1 MAXVALUE 7;
		CREATE ARRAY white (i INTEGER DIMENSION rng, j INTEGER DIMENSION rng, color CHAR(5) DEFAULT 'white');
		CREATE ARRAY black (LIKE white);
		UPDATE black SET color = 'black';
		CREATE ARRAY chessboard (i INTEGER DIMENSION rng, j INTEGER DIMENSION rng, sq CHAR(5));
		INSERT INTO chessboard
			SELECT [i], [j], color FROM white WHERE MOD(i + j, 2) = 0
			UNION
			SELECT [i], [j], color FROM black WHERE MOD(i + j, 2) = 1;
	`, nil)
	ds := run(t, e, `SELECT sq FROM chessboard WHERE i = 0 AND j = 0`, nil)
	if got := ds.Get(0, 0).S; got != "white" {
		t.Errorf("chessboard(0,0) = %q, want white", got)
	}
	ds = run(t, e, `SELECT sq FROM chessboard WHERE i = 0 AND j = 1`, nil)
	if got := ds.Get(0, 0).S; got != "black" {
		t.Errorf("chessboard(0,1) = %q, want black", got)
	}
	ds = run(t, e, `SELECT count(*) FROM chessboard`, nil)
	if got := ds.Get(0, 0).I; got != 64 {
		t.Errorf("chessboard cells = %d, want 64", got)
	}
}

func TestWhiteBoxTranspose(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `
		CREATE FUNCTION transpose (a ARRAY (i INTEGER DIMENSION, j INTEGER DIMENSION, v FLOAT))
		RETURNS ARRAY (i INTEGER DIMENSION, j INTEGER DIMENSION, v FLOAT)
		BEGIN RETURN SELECT [j],[i], v FROM a; END;
	`, nil)
	ds := run(t, e, `SELECT transpose(matrix[*][*])`, nil)
	// Result expands to cells: transpose swaps coordinates.
	if ds.NumRows() != 16 {
		t.Fatalf("transpose result: got %d cells, want 16", ds.NumRows())
	}
}

func TestWhiteBoxScalarTVI(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE FUNCTION tvi (b3 REAL, b4 REAL) RETURNS REAL
		RETURN POWER(((b4 - b3) / (b4 + b3) + 0.5), 0.5);
	`, nil)
	ds := run(t, e, `SELECT tvi(1.0, 3.0)`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 1.0 {
		t.Errorf("tvi(1,3) = %v, want 1.0", got)
	}
}

func TestPSMConvFunction(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `
		CREATE FUNCTION conv (a ARRAY(i INTEGER DIMENSION[3], j INTEGER DIMENSION[3], v FLOAT))
		RETURNS FLOAT
		BEGIN
			DECLARE s1 FLOAT, s2 FLOAT, z FLOAT;
			SET s1 = (a[0][0].v + a[0][2].v + a[2][0].v + a[2][2].v)/4.0;
			SET s2 = (a[0][1].v + a[1][0].v + a[1][2].v + a[2][1].v)/4.0;
			SET z = 2 * ABS(s1 - s2);
			IF ((ABS(a[1][1].v - s1) > z) OR (ABS(a[1][1].v - s2) > z))
			THEN RETURN s2;
			ELSE RETURN a[1][1].v;
			END IF;
		END;
	`, nil)
	// The window at (1,1): uniform-ish gradient keeps the center.
	ds := run(t, e, `SELECT conv(matrix[0:3][0:3])`, nil)
	if ds.Get(0, 0).Null {
		t.Fatal("conv returned NULL")
	}
	if got := ds.Get(0, 0).AsFloat(); got != 5 {
		t.Errorf("conv(window at 1,1) = %v, want 5 (center kept)", got)
	}
}

func TestBlackBoxFunction(t *testing.T) {
	e := newMatrix(t)
	e.RegisterExternal("markov.loop", func(args []value.Value) (value.Value, error) {
		return value.NewFloat(42), nil
	})
	run(t, e, `
		CREATE FUNCTION markov (input ARRAY (x INT DIMENSION, y INT DIMENSION, f FLOAT), steps INT)
		RETURNS FLOAT EXTERNAL NAME 'markov.loop';
	`, nil)
	ds := run(t, e, `SELECT markov(matrix[*][*], 10)`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 42 {
		t.Errorf("black-box call = %v, want 42", got)
	}
}

func TestInsertShifting(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY grid (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v INTEGER DEFAULT 0);
		UPDATE grid SET v = x * 4 + y;
		INSERT INTO grid VALUES(1, 1, 25);
	`, nil)
	ds := run(t, e, `SELECT v FROM grid WHERE x = 1 AND y = 1`, nil)
	if got := ds.Get(0, 0).I; got != 25 {
		t.Fatalf("inserted cell = %d, want 25", got)
	}
	// Old (1,1)=5 shifted to (2,2).
	ds = run(t, e, `SELECT v FROM grid WHERE x = 2 AND y = 2`, nil)
	if got := ds.Get(0, 0).I; got != 5 {
		t.Errorf("shifted cell (2,2) = %d, want 5", got)
	}
	// Cell (0,0) untouched (coords below the anchor don't shift).
	ds = run(t, e, `SELECT v FROM grid WHERE x = 0 AND y = 0`, nil)
	if got := ds.Get(0, 0).I; got != 0 {
		t.Errorf("cell (0,0) = %d, want 0", got)
	}
}

func TestDeleteLineKill(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `DELETE FROM matrix WHERE MOD(x, 2) = 0 OR MOD(y, 2) = 0`, nil)
	// Survivors: (1,1)=5,(1,3)=7,(3,1)=13,(3,3)=15 shifted to x[0:1]y[0:1].
	ds := run(t, e, `SELECT v FROM matrix WHERE x = 0 AND y = 0`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 5 {
		t.Errorf("shifted (0,0) = %v, want 5", got)
	}
	ds = run(t, e, `SELECT v FROM matrix WHERE x = 1 AND y = 1`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 15 {
		t.Errorf("shifted (1,1) = %v, want 15", got)
	}
	// Vacated cells reset to the default.
	ds = run(t, e, `SELECT v FROM matrix WHERE x = 3 AND y = 3`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 0 {
		t.Errorf("vacated (3,3) = %v, want default 0", got)
	}
}

func TestAlterDimensionShift(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `ALTER ARRAY matrix ALTER x DIMENSION[-5:-1]`, nil)
	ds := run(t, e, `SELECT v FROM matrix WHERE x = -5 AND y = 0`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 0 {
		t.Errorf("shifted label (-5,0) = %v, want 0 (old (0,0))", got)
	}
	ds = run(t, e, `SELECT v FROM matrix WHERE x = -2 AND y = 3`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 15 {
		t.Errorf("shifted label (-2,3) = %v, want 15 (old (3,3))", got)
	}
}

func TestAlterAddDerivedColumn(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `ALTER ARRAY matrix ADD r FLOAT DEFAULT SQRT(POWER(x,2) + POWER(y,2))`, nil)
	ds := run(t, e, `SELECT r FROM matrix WHERE x = 3 AND y = 4`, nil)
	_ = ds // (3,4) out of bounds for 4x4; use (3,3).
	ds = run(t, e, `SELECT r FROM matrix WHERE x = 0 AND y = 3`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 3 {
		t.Errorf("r(0,3) = %v, want 3", got)
	}
}

// A default that does not coerce to the added attribute's type fails
// the ALTER and leaves the array as it was.
func TestAlterAddDefaultCoercionError(t *testing.T) {
	e := newMatrix(t)
	stmts, err := parser.Parse(`ALTER ARRAY matrix ADD c FLOAT DEFAULT 'abc'`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(stmts[0], nil); err == nil || !strings.Contains(err.Error(), "cannot coerce") {
		t.Errorf("ALTER ADD with an uncoercible default: err = %v, want a coercion error", err)
	}
	if ds := run(t, e, `SELECT * FROM matrix WHERE x = 0 AND y = 0`, nil); ds.NumCols() != 3 {
		t.Errorf("the failed ALTER left %d columns, want 3", ds.NumCols())
	}
}

func TestCorrelatedSubqueryWavelet(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY d (x INTEGER DIMENSION[2], y INTEGER DIMENSION[4], v FLOAT DEFAULT 1.0);
		CREATE ARRAY e2 (x INTEGER DIMENSION[2], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.5);
		CREATE ARRAY img (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0);
		UPDATE img SET img[x][y].v = (SELECT d[x/2][y].v + e2[x/2][y].v * POWER(-1,x) FROM d, e2);
	`, nil)
	// Even x: 1 + 0.5 = 1.5; odd x: 1 - 0.5 = 0.5.
	ds := run(t, e, `SELECT v FROM img WHERE x = 0 AND y = 0`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 1.5 {
		t.Errorf("img(0,0) = %v, want 1.5", got)
	}
	ds = run(t, e, `SELECT v FROM img WHERE x = 1 AND y = 2`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 0.5 {
		t.Errorf("img(1,2) = %v, want 0.5", got)
	}
}

func TestCorrelatedJoinFormWavelet(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY d (x INTEGER DIMENSION[2], y INTEGER DIMENSION[4], v FLOAT DEFAULT 1.0);
		CREATE ARRAY e2 (x INTEGER DIMENSION[2], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.5);
		CREATE ARRAY img (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0);
		UPDATE img SET v = (SELECT d.v + e2.v * POWER(-1,x) FROM d, e2
			WHERE img.y = d.y AND img.y = e2.y AND d.x = img.x/2 AND e2.x = img.x/2);
	`, nil)
	ds := run(t, e, `SELECT v FROM img WHERE x = 1 AND y = 2`, nil)
	if got := ds.Get(0, 0).AsFloat(); got != 0.5 {
		t.Errorf("join-form img(1,2) = %v, want 0.5", got)
	}
}

func TestMatVecTiling(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY a (x INTEGER DIMENSION[3], y INTEGER DIMENSION[3], v FLOAT DEFAULT 1.0);
		CREATE ARRAY b (k INTEGER DIMENSION[3], v FLOAT DEFAULT 2.0);
		CREATE ARRAY m (x INTEGER DIMENSION[3], v FLOAT DEFAULT 0.0);
		UPDATE a SET v = x + y;
		UPDATE b SET v = k + 1;
		UPDATE m SET m[x].v = (SELECT SUM(a[x][y].v * b[y].v) FROM a GROUP BY a[x][*]);
	`, nil)
	// Row x of a = [x, x+1, x+2]; b = [1,2,3]; m[x] = x*1+(x+1)*2+(x+2)*3 = 6x+8.
	for x := int64(0); x < 3; x++ {
		ds := run(t, e, `SELECT v FROM m WHERE x = ?x`, map[string]value.Value{"x": value.NewInt(x)})
		if got := ds.Get(0, 0).AsFloat(); got != float64(6*x+8) {
			t.Errorf("m[%d] = %v, want %d", x, got, 6*x+8)
		}
	}
}

func TestMaskHaving(t *testing.T) {
	e := newMatrix(t)
	ds := run(t, e, `
		SELECT [x], [y], AVG(v) FROM matrix
		GROUP BY matrix[x-1:x+2][y-1:y+2]
		HAVING AVG(v) BETWEEN 5 AND 9`, nil)
	for r := 0; r < ds.NumRows(); r++ {
		avg := ds.Get(r, 2).AsFloat()
		if avg < 5 || avg > 9 {
			t.Errorf("HAVING leak: avg=%v", avg)
		}
	}
	if ds.NumRows() == 0 {
		t.Fatal("mask returned no tiles")
	}
}

func TestNextGapDetection(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY samples (time INTEGER DIMENSION, data FLOAT);
		INSERT INTO samples VALUES (0, 1.0);
		INSERT INTO samples VALUES (1, 2.0);
		INSERT INTO samples VALUES (5, 3.0);
		INSERT INTO samples VALUES (6, 4.0);
	`, nil)
	ds := run(t, e, `
		SELECT [time], next(time) - time FROM samples
		WHERE next(time) - time BETWEEN ?gap_min AND ?gap_max`,
		map[string]value.Value{"gap_min": value.NewInt(2), "gap_max": value.NewInt(10)})
	if ds.NumRows() != 1 {
		t.Fatalf("gap detection: got %d gaps, want 1", ds.NumRows())
	}
	if got := ds.Get(0, 0).I; got != 1 {
		t.Errorf("gap starts at time %d, want 1", got)
	}
	if got := ds.Get(0, 1).I; got != 4 {
		t.Errorf("gap length = %d, want 4", got)
	}
}

func TestMovingAverage(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY s (time INTEGER DIMENSION[1:6], data FLOAT);
		UPDATE s SET data = CASE WHEN time = 1 THEN 4.5051 WHEN time = 2 THEN 4.5947
			WHEN time = 3 THEN 5.2231 WHEN time = 4 THEN 4.9635 ELSE 5.2945 END;
	`, nil)
	ds := run(t, e, `
		SELECT [time], AVG(data) FROM s GROUP BY s[time-2:time+1]`, nil)
	if ds.NumRows() != 5 {
		t.Fatalf("moving average rows: got %d, want 5", ds.NumRows())
	}
	want := map[int64]float64{
		1: 4.5051, 2: 4.5499, 3: 4.774300000000001, 4: 4.9271, 5: 5.160366666666667,
	}
	for r := 0; r < ds.NumRows(); r++ {
		tm := ds.Get(r, 0).I
		got := ds.Get(r, 1).AsFloat()
		if diff := got - want[tm]; diff > 1e-4 || diff < -1e-4 {
			t.Errorf("movavg(t=%d) = %v, want %v", tm, got, want[tm])
		}
	}
}

func TestUnboundedTimestampArray(t *testing.T) {
	e := New()
	run(t, e, `
		CREATE ARRAY exp1 (run TIMESTAMP DIMENSION[TIMESTAMP '2010-01-01':*], val FLOAT);
		INSERT INTO exp1 VALUES (TIMESTAMP '2010-06-01', 1.5);
		INSERT INTO exp1 VALUES (TIMESTAMP '2010-06-02', 2.5);
	`, nil)
	ds := run(t, e, `SELECT run, val FROM exp1`, nil)
	if ds.NumRows() != 2 {
		t.Fatalf("timestamp array: got %d cells, want 2", ds.NumRows())
	}
	if ds.Cols[0].Typ != value.Timestamp {
		t.Errorf("run column type = %v, want Timestamp", ds.Cols[0].Typ)
	}
}

func TestOrderByLimit(t *testing.T) {
	e := newMatrix(t)
	ds := run(t, e, `SELECT x, y, v FROM matrix ORDER BY v DESC LIMIT 3`, nil)
	if ds.NumRows() != 3 {
		t.Fatalf("LIMIT 3: got %d", ds.NumRows())
	}
	if got := ds.Get(0, 2).AsFloat(); got != 15 {
		t.Errorf("top value = %v, want 15", got)
	}
}

func TestJoinOnArrayDims(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `
		CREATE TABLE tt (i INTEGER, k INTEGER);
		INSERT INTO tt VALUES (1, 100), (2, 200);
	`, nil)
	ds := run(t, e, `SELECT [tt.k], [y], v FROM matrix JOIN tt ON matrix.x = tt.i`, nil)
	if ds.NumRows() != 8 {
		t.Fatalf("join: got %d rows, want 8", ds.NumRows())
	}
}

func TestDropObjects(t *testing.T) {
	e := newMatrix(t)
	run(t, e, `DROP ARRAY matrix`, nil)
	if _, err := parser.ParseOne(`SELECT * FROM matrix`); err != nil {
		t.Fatal(err)
	}
	stmt, _ := parser.ParseOne(`SELECT * FROM matrix`)
	if _, err := e.Exec(stmt, nil); err == nil {
		t.Fatal("expected error selecting from dropped array")
	}
}
