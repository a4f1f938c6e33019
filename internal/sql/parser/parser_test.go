package parser

import (
	"testing"

	"repro/internal/sql/ast"
	"repro/internal/value"
)

// paperStatements collects verbatim (modulo whitespace) statements
// from the paper; all must parse.
var paperStatements = []string{
	`CREATE ARRAY A1 (x INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`,
	`CREATE ARRAY A2 (x INTEGER DIMENSION[0:4:1], v FLOAT DEFAULT 0.0)`,
	`CREATE SEQUENCE range AS INTEGER START WITH 0 INCREMENT BY 1 MAXVALUE 3`,
	`CREATE ARRAY A3 (x INTEGER DIMENSION range, v FLOAT DEFAULT 0.0)`,
	`CREATE ARRAY matrix (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`,
	`CREATE ARRAY stripes (x INTEGER DIMENSION[4] CHECK(MOD(x,2) = 1), y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`,
	`CREATE ARRAY diagonal (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4] CHECK(x = y), v FLOAT DEFAULT 0.0)`,
	`CREATE ARRAY sparse (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0 CHECK(v>0))`,
	`CREATE ARRAY experiment (run DATE DIMENSION[TIMESTAMP '2010-01-01':*], payload FLOAT ARRAY[4][4] DEFAULT 0.0)`,
	`UPDATE stripes SET v = CASE WHEN x>y THEN x + y WHEN x<y THEN x - y ELSE 0 END`,
	`UPDATE diagonal SET v = x + y`,
	`UPDATE sparse SET v = MOD(RAND(),16)`,
	`INSERT INTO grid VALUES(1,1,25)`,
	`UPDATE experiment SET payload[x][y] = NULL WHERE payload[x][y] < 0`,
	`DELETE FROM matrix WHERE MOD(x, 2) = 0 OR MOD(y, 2) = 0`,
	`EXPLAIN ANALYZE UPDATE matrix SET v = v + 1 WHERE x < 2`,
	`EXPLAIN ANALYZE DELETE FROM matrix WHERE x = 1`,
	`SELECT x, y, v FROM matrix`,
	`SELECT ARRAY (1,2,3,4)`,
	`SELECT ARRAY((1,2),(3,4))`,
	`SELECT x, y, v FROM matrix WHERE v > 2`,
	`SELECT [x], [y], v FROM matrix WHERE v > 2`,
	`SELECT [T.k], [y], v FROM matrix JOIN T ON matrix.x = T.i`,
	`SELECT matrix[1][1].v`,
	`SELECT sparse[0:2][0:2].v`,
	`SET vector[0:2].v = (expr1, expr2)`,
	`SET vector[x].v = CASE WHEN vector[x].v < 0 THEN x WHEN vector[x].v > 10 THEN 10 * x END`,
	`CREATE ARRAY vmatrix (x INTEGER DIMENSION[-1:4], y INTEGER DIMENSION[-1:4], w FLOAT DEFAULT 0)`,
	`INSERT INTO vmatrix SELECT [y], [x], v FROM matrix`,
	`SELECT [x], [y], avg(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2]`,
	`SELECT [x], [y], avg(v) FROM matrix GROUP BY DISTINCT matrix[x:x+2][y:y+2]`,
	`SELECT [x], [y], avg(v) FROM matrix GROUP BY DISTINCT matrix[x-1:x+1][y-1:y+1]`,
	`SELECT [x], sum(v) FROM matrix GROUP BY DISTINCT matrix[x][y:*]`,
	`SELECT x, y, AVG(v) FROM vmatrix[0:3][0:3] GROUP BY vmatrix[x][y], vmatrix[x-1][y], vmatrix[x+1][y], vmatrix[x][y-1], vmatrix[x][y+1]`,
	`SELECT distance(A, ?V), A.* FROM matrix AS A GROUP BY matrix[x][*]`,
	`ALTER ARRAY img ALTER x DIMENSION[-5:*]`,
	`ALTER ARRAY matrix ADD r FLOAT DEFAULT SQRT(POWER(x,2) + POWER(y,2))`,
	`CREATE ARRAY tmp (x INTEGER DIMENSION, y INTEGER DIMENSION, v FLOAT)`,
	`INSERT INTO tmp SELECT x, y, AVG(v) FROM matrix GROUP BY DISTINCT matrix[x:x+2][y:y+2]`,
	`CREATE SEQUENCE rng AS INTEGER START WITH 0 INCREMENT BY 1 MAXVALUE 7`,
	`CREATE ARRAY white (i INTEGER DIMENSION rng, j INTEGER DIMENSION rng, color CHAR(5) DEFAULT 'white')`,
	`CREATE ARRAY black (LIKE white)`,
	`INSERT INTO chessboard
	   SELECT [i], [j], color FROM white WHERE (i * 8 + j) / 2 = 0
	   UNION
	   SELECT [i], [j], color FROM black WHERE (i * 8 + j) / 2 = 1`,
	`CREATE FUNCTION transpose (a ARRAY (i INTEGER DIMENSION, j INTEGER DIMENSION, v FLOAT))
	   RETURNS ARRAY (i INTEGER DIMENSION, j INTEGER DIMENSION, v FLOAT)
	   BEGIN RETURN SELECT [j],[i], a[i][j].v FROM a; END`,
	`CREATE FUNCTION markov (input ARRAY (x INT DIMENSION, y INT DIMENSION, f FLOAT), steps INT)
	   RETURNS ARRAY (x INT DIMENSION, y INT DIMENSION, f FLOAT)
	   EXTERNAL NAME 'markov.loop'`,
	`CREATE ARRAY landsat (channel INTEGER DIMENSION[7], x INTEGER DIMENSION[1024], y INTEGER DIMENSION[1024], v INTEGER)`,
	`UPDATE landsat SET v = noise(v, delta) WHERE channel = 6 AND MOD(x,6) = 1`,
	`CREATE FUNCTION tvi (b3 REAL, b4 REAL) RETURNS REAL
	   RETURN POWER(((b4 - b3) / (b4 + b3) + 0.5), 0.5)`,
	`CREATE FUNCTION conv (a ARRAY(i INTEGER DIMENSION[3], j INTEGER DIMENSION[3], v FLOAT))
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
	   END`,
	`SELECT [x], [y], tvi(conv(landsat[3][x-1:x+1][y-1:y+1]), conv(landsat[4][x-1:x+1][y-1:y+1])) FROM landsat`,
	`CREATE FUNCTION intens2radiance (b INT, lmin REAL, lmax REAL) RETURNS REAL
	   RETURN (lmax-lmin) * b / 255.0 + lmin`,
	`CREATE ARRAY ndvi (x INT DIMENSION[1024], y INT DIMENSION[1024], b1 REAL, b2 REAL, v REAL)`,
	`SELECT [x], [y], AVG(v) FROM landsat GROUP BY landsat[x-1:x+1][y-1:y+1] HAVING AVG(v) BETWEEN 10 AND 100`,
	`UPDATE img SET v = (SELECT d.v + e.v * POWER(-1,x) FROM d, e
	   WHERE img.y = d.y AND img.y = e.y AND d.x = img.x/2 AND e.x = img.x/2)`,
	`UPDATE img SET img[x][y].v = (SELECT d[x/2][y].v + e[x/2][y].v * POWER(-1,x) FROM d, e)`,
	`CREATE ARRAY m (x INT DIMENSION[1024], v INT)`,
	`UPDATE m SET m[x].v = (SELECT SUM(a[x][y].v * b[k].v) FROM a, b WHERE a.y = b.k GROUP BY a[x][*])`,
	`CREATE ARRAY ximage (x INTEGER DIMENSION, y INTEGER DIMENSION, v INTEGER DEFAULT 0)`,
	`INSERT INTO ximage SELECT [x], [y], count(*) FROM events GROUP BY x, y`,
	`SELECT [x/16], [y/16], SUM(v) FROM ximage GROUP BY DISTINCT ximage[x:x+16][y:y+16]`,
	`ALTER ARRAY img ADD wcs_x FLOAT DIMENSION`,
	`UPDATE img SET wcs_x = (SELECT s[0].v * (m[0][0].v * (img.x - ref[0].v) + m[0][1].v * (img.y - ref[1].v)) FROM m, ref, s),
	               wcs_y = (SELECT s[1].v * (m[1][0].v * (img.x - ref[0].v) + m[1][1].v * (img.y - ref[1].v)) FROM m, ref, s)`,
	`CREATE ARRAY Stations (latitude INTEGER DIMENSION, longitude INTEGER DIMENSION, altitude INTEGER DIMENSION, id VARCHAR(5), name VARCHAR(60))`,
	`CREATE TABLE mSeed (seqnr INTEGER, station VARCHAR(5), quality CHAR,
	   samples ARRAY (time TIMESTAMP DIMENSION, data DOUBLE),
	   PRIMARY KEY (seqnr), FOREIGN KEY (station) REFERENCES Stations(id))`,
	`SELECT Stations.*, seqnr, quality,
	   samples[TIMESTAMP '2010-09-03 16:30:00':TIMESTAMP '2010-09-03 16:40:00']
	   FROM mSeed, Stations
	   WHERE station = Stations[?lat_min:?lat_max][?lng_min:?lng_max][*].id`,
	`SELECT * FROM mSeed WHERE next(samples.time) - samples.time BETWEEN ?gap_min AND ?gap_max
	   HAVING next(samples.time) IS NOT NULL`,
	`SELECT seqnr, quality, station, samples[time-100:time+100] FROM mSeed
	   WHERE ABS(samples[time].data - next(samples[time]).data) > ?T`,
	`SELECT [time], data, AVG(sample[time-3:time].data) FROM mSeed WHERE mSeeds.seqnr = ?nr
	   GROUP BY sample[time-3:time]`,
}

func TestPaperStatementsParse(t *testing.T) {
	for i, src := range paperStatements {
		if _, err := ParseOne(src); err != nil {
			t.Errorf("statement %d failed to parse: %v\nSQL: %s", i, err, src)
		}
	}
}

func TestParseCreateArrayShape(t *testing.T) {
	s, err := ParseOne(`CREATE ARRAY matrix (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0)`)
	if err != nil {
		t.Fatal(err)
	}
	ca, ok := s.(*ast.CreateArray)
	if !ok {
		t.Fatalf("expected *ast.CreateArray, got %T", s)
	}
	if ca.Name != "matrix" || len(ca.Cols) != 3 {
		t.Fatalf("unexpected shape: %+v", ca)
	}
	if !ca.Cols[0].IsDim || !ca.Cols[1].IsDim || ca.Cols[2].IsDim {
		t.Fatalf("dimension flags wrong: %+v", ca.Cols)
	}
	if ca.Cols[0].Dim.Size == nil {
		t.Fatal("expected [4] size shorthand on x")
	}
	if ca.Cols[2].Type != value.Float {
		t.Fatalf("v should be FLOAT, got %v", ca.Cols[2].Type)
	}
	if ca.Cols[2].Default == nil {
		t.Fatal("v should carry DEFAULT 0.0")
	}
}

func TestParseDimSpecForms(t *testing.T) {
	cases := []struct {
		sql       string
		wantStart bool // spec.Start non-nil
		wantEnd   bool
		starEnd   bool
		size      bool
		seq       string
		bare      bool
	}{
		{`CREATE ARRAY a (x INTEGER DIMENSION[4], v FLOAT)`, false, false, false, true, "", false},
		{`CREATE ARRAY a (x INTEGER DIMENSION[0:4:1], v FLOAT)`, true, true, false, false, "", false},
		{`CREATE ARRAY a (x INTEGER DIMENSION[-5:*], v FLOAT)`, true, false, true, false, "", false},
		{`CREATE ARRAY a (x INTEGER DIMENSION rng, v FLOAT)`, false, false, false, false, "rng", false},
		{`CREATE ARRAY a (x INTEGER DIMENSION, v FLOAT)`, false, false, false, false, "", true},
	}
	for _, c := range cases {
		s, err := ParseOne(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		spec := s.(*ast.CreateArray).Cols[0].Dim
		if (spec.Start != nil) != c.wantStart ||
			(spec.End != nil) != c.wantEnd ||
			spec.StarEnd != c.starEnd ||
			(spec.Size != nil) != c.size ||
			spec.SeqName != c.seq ||
			spec.Bare != c.bare {
			t.Errorf("%s: got %+v", c.sql, spec)
		}
	}
}

func TestParseTilingGroupBy(t *testing.T) {
	s, err := ParseOne(`SELECT [x], [y], avg(v) FROM matrix GROUP BY DISTINCT matrix[x:x+2][y:y+2]`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	if sel.GroupBy == nil || !sel.GroupBy.Distinct || len(sel.GroupBy.Tiles) != 1 {
		t.Fatalf("unexpected group by: %+v", sel.GroupBy)
	}
	ref := sel.GroupBy.Tiles[0].Ref
	if len(ref.Indexers) != 2 || !ref.Indexers[0].Range {
		t.Fatalf("unexpected tile ref: %+v", ref)
	}
	if !sel.Items[0].DimQual || !sel.Items[1].DimQual || sel.Items[2].DimQual {
		t.Fatalf("dimension qualifiers wrong: %+v", sel.Items)
	}
}

func TestParseAnchorListGroupBy(t *testing.T) {
	s, err := ParseOne(`SELECT x, y, AVG(v) FROM vmatrix[0:3][0:3]
		GROUP BY vmatrix[x][y], vmatrix[x-1][y], vmatrix[x+1][y], vmatrix[x][y-1], vmatrix[x][y+1]`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	if len(sel.GroupBy.Tiles) != 5 {
		t.Fatalf("expected 5 tile elements, got %d", len(sel.GroupBy.Tiles))
	}
	tr := sel.From[0].(*ast.TableRef)
	if tr.Name != "vmatrix" || len(tr.Indexers) != 2 {
		t.Fatalf("sliced FROM item wrong: %+v", tr)
	}
}

func TestParseValueGroupByStaysValue(t *testing.T) {
	s, err := ParseOne(`SELECT x, count(*) FROM events GROUP BY x, y`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	if len(sel.GroupBy.Exprs) != 2 || len(sel.GroupBy.Tiles) != 0 {
		t.Fatalf("unexpected group by: %+v", sel.GroupBy)
	}
}

func TestParseMixedGroupByRejected(t *testing.T) {
	if _, err := ParseOne(`SELECT x FROM t GROUP BY x, t[x:x+2]`); err == nil {
		t.Fatal("expected error for mixed value/tile GROUP BY")
	}
}

func TestParseSlicingExpr(t *testing.T) {
	s, err := ParseOne(`SELECT sparse[0:2][0:2].v`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	ref := sel.Items[0].Expr.(*ast.ArrayRef)
	if ref.Attr != "v" || len(ref.Indexers) != 2 || !ref.Indexers[0].Range {
		t.Fatalf("unexpected slicing ref: %+v", ref)
	}
}

func TestParseCaseGuardedUpdate(t *testing.T) {
	s, err := ParseOne(`UPDATE stripes SET v = CASE WHEN x>y THEN x + y WHEN x<y THEN x - y ELSE 0 END`)
	if err != nil {
		t.Fatal(err)
	}
	up := s.(*ast.Update)
	c := up.Sets[0].Value.(*ast.Case)
	if len(c.Whens) != 2 || c.Else == nil {
		t.Fatalf("unexpected CASE: %+v", c)
	}
}

func TestParseFunctionBodies(t *testing.T) {
	s, err := ParseOne(`CREATE FUNCTION conv (a ARRAY(i INTEGER DIMENSION[3], j INTEGER DIMENSION[3], v FLOAT))
		RETURNS FLOAT
		BEGIN
		  DECLARE s1 FLOAT, s2 FLOAT, z FLOAT;
		  SET s1 = (a[0][0].v + a[0][2].v + a[2][0].v + a[2][2].v)/4.0;
		  IF ABS(a[1][1].v - s1) > z THEN RETURN s2; ELSE RETURN a[1][1].v; END IF;
		END`)
	if err != nil {
		t.Fatal(err)
	}
	fn := s.(*ast.CreateFunction)
	if len(fn.Params) != 1 || fn.Params[0].Type != value.Array {
		t.Fatalf("unexpected params: %+v", fn.Params)
	}
	if len(fn.Body) != 3 {
		t.Fatalf("expected 3 body statements, got %d", len(fn.Body))
	}
	if _, ok := fn.Body[2].(*ast.If); !ok {
		t.Fatalf("expected IF as third statement, got %T", fn.Body[2])
	}
}

func TestParseExternalFunction(t *testing.T) {
	s, err := ParseOne(`CREATE FUNCTION markov (input ARRAY (x INT DIMENSION, y INT DIMENSION, f FLOAT), steps INT)
		RETURNS ARRAY (x INT DIMENSION, y INT DIMENSION, f FLOAT) EXTERNAL NAME 'markov.loop'`)
	if err != nil {
		t.Fatal(err)
	}
	fn := s.(*ast.CreateFunction)
	if fn.External != "markov.loop" {
		t.Fatalf("external name = %q", fn.External)
	}
	if fn.Returns.Type != value.Array || len(fn.Returns.Array) != 3 {
		t.Fatalf("returns = %+v", fn.Returns)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT FROM t`,
		`CREATE ARRAY a`,
		`CREATE ARRAY a (x INTEGER DIMENSION[4)`,
		`UPDATE t SET`,
		`SELECT * FROM t WHERE`,
		`SELECT 1 +`,
		`CREATE FUNCTION f () RETURNS FLOAT`,
		`INSERT INTO t`,
		`SELECT a[1 FROM t`,
	}
	for _, src := range bad {
		if _, err := ParseOne(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseMultiStatementScript(t *testing.T) {
	stmts, err := Parse(`
		CREATE ARRAY a (x INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0);
		UPDATE a SET v = x * 2;
		SELECT [x], v FROM a;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("expected 3 statements, got %d", len(stmts))
	}
}

func TestParseUnionChain(t *testing.T) {
	s, err := ParseOne(`SELECT 1 UNION SELECT 2 UNION ALL SELECT 3`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	if sel.SetOp != "UNION" || sel.SetRight == nil {
		t.Fatalf("first union missing: %+v", sel)
	}
	if sel.SetRight.SetOp != "UNION ALL" || sel.SetRight.SetRight == nil {
		t.Fatalf("second union missing: %+v", sel.SetRight)
	}
}

func TestParseTimestampLiteral(t *testing.T) {
	e, err := ParseExpr(`TIMESTAMP '2010-09-03 16:30:00'`)
	if err != nil {
		t.Fatal(err)
	}
	lit := e.(*ast.Literal)
	if lit.Val.Typ != value.Timestamp {
		t.Fatalf("got %v", lit.Val.Typ)
	}
	if got := lit.Val.Time().Format("2006-01-02 15:04:05"); got != "2010-09-03 16:30:00" {
		t.Fatalf("timestamp round-trip: %s", got)
	}
}

func TestParseNegativeFold(t *testing.T) {
	e, err := ParseExpr(`-5`)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*ast.Literal)
	if !ok || lit.Val.I != -5 {
		t.Fatalf("expected folded -5, got %#v", e)
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr(`1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*ast.Binary)
	if b.Op != "+" {
		t.Fatalf("expected + at root, got %s", b.Op)
	}
	if r := b.R.(*ast.Binary); r.Op != "*" {
		t.Fatalf("expected * on right, got %s", r.Op)
	}
}
