package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// scalarRowResults evaluates the scalar program row by row, returning the
// per-row values and the first erroring row (-1 if none) — the reference
// the batch engine must reproduce exactly.
func scalarRowResults(prog *Program, rows [][]value.Value) (vals []value.Value, firstErr int, err error) {
	vals = make([]value.Value, len(rows))
	for i, row := range rows {
		v, verr := prog.Eval(row)
		if verr != nil {
			return vals, i, verr
		}
		vals[i] = v
	}
	return vals, -1, nil
}

// threeWayCompare asserts the interpreter, the scalar program and the
// typed batch program agree on every row: identical values (and types),
// and — between scalar and typed — the identical first erroring row and
// Refs. typedCompare exercises the batch program both as one full batch
// and split into chunks of every size from 1 up, to shake out
// batch-boundary bugs.
func threeWayCompare(t *testing.T, src string, layout MapLayout, rows [][]value.Value) {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	compileAndCompare(t, src, layout, rows)
	var want []value.Value
	wantErrRow, wantErr := -1, error(nil)
	if prog, err := Compile(e, layout); err == nil {
		want, wantErrRow, wantErr = scalarRowResults(prog, rows)
	}
	// typedCompare checks compile-error parity itself and stops there when
	// the scalar compiler rejects the expression.
	typedCompare(t, src, layout, rows, want, wantErrRow, wantErr)
}

// differentialExprs is the shared differential expression list: literals
// and constant folding, three-valued logic, every kernel family and its
// boxed fallback, error-bearing rows, and the right-nested AND/OR
// regressions.
var differentialExprs = []string{
	// Literals, arithmetic, typing.
	"1 + 2", "7 / 2", "7 % 3", "2 * 3 + 1", "-5", "- (2.5)", "1.5e2",
	"'a' + 'b'", "TRUE", "NULL", "NULL + 1",
	// Comparisons and three-valued logic.
	"2 = 2", "2 <> 3", "2 < 3", "3 <= 3", "2 > 3", "2 >= 3", "2 = NULL",
	"TRUE AND FALSE", "TRUE OR FALSE", "FALSE AND NULL", "TRUE OR NULL",
	"TRUE AND NULL", "FALSE OR NULL", "NOT TRUE", "NOT NULL",
	// Column-driven vectorized forms.
	"O.type = 'GALAXY'",
	"(O.i_flux - T.i_flux) > 2",
	"O.type = 'GALAXY' AND (O.i_flux - T.i_flux) > 2",
	"O.type = 'GALAXY' OR n > 3",
	"x + n", "x * n", "x % n", "x / n", "-x", "x - n",
	"ABS(O.dec) < 30.0", "ABS(x)",
	"O.dec BETWEEN -30 AND 30",
	"n BETWEEN x AND 10",
	"O.type IN ('GALAXY', 'QSO')",
	"n IN (1, 7, NULL)", "n IN (x, 0)",
	"O.type IS NULL", "O.type IS NOT NULL", "x IS NULL",
	"O.type LIKE 'GAL%'", "name LIKE 'NGC%'", "name LIKE name", "n LIKE 'x'",
	"COALESCE(O.type, name, 'none')",
	"UPPER(name)", "LOWER(O.type)", "LEN(name)", "POWER(2, n)",
	"NOT (O.type = 'GALAXY' OR n > 3)",
	"x = 1 OR x = 2 OR n IS NULL",
	"(O.i_flux + T.i_flux) / 2 >= T.i_flux",
	// Error-bearing rows: mixed-type comparisons and arithmetic, bad
	// operands partway down the batch.
	"x > 0", "x + 1 > n", "name > 2", "x = name",
	"n / (n - n)", "x % (n - n)",
	"-name", "ABS(name) > 0",
	// Constant folding interplay, including constant errors that must
	// fire at evaluation time on the first selected row.
	"1 / 0", "1 % 0", "x > 0 AND 1 / 0 = 1", "FALSE AND 1 / 0 = 1",
	"TRUE OR 1 / 0 = 1", "1 = 1 AND O.type = 'GALAXY'",
	// Right-nested AND/OR with non-bool and NULL operands: value.And
	// is not associative there, so flattening the right side would
	// re-associate and diverge (regression: the batch compiler must
	// keep a nested right AND as a single member).
	"x AND (n AND x)", "x AND ((n > 0) AND NULL)",
	"n AND (x IS NULL AND NULL)", "(x AND n) AND x",
	"x AND (x > 0 AND n / (n - n) > 0)",
	"x OR (n OR NULL)", "x OR ((n > 0) OR NULL)", "(x OR n) OR NULL",
	"x OR (x > 0 OR n / (n - n) > 0)",
}

// TestBatchMatchesScalarAndInterpreter holds the typed batch engine to the
// interpreter and the scalar compiler over differentialExprs on stdRows'
// mixed-type columns.
func TestBatchMatchesScalarAndInterpreter(t *testing.T) {
	rows := stdRows()
	for _, src := range differentialExprs {
		threeWayCompare(t, src, stdLayout, rows)
	}
}

func TestBatchSizeKnob(t *testing.T) {
	old := BatchSize()
	defer SetBatchSize(old)
	SetBatchSize(3)
	if BatchSize() != 3 {
		t.Errorf("BatchSize = %d", BatchSize())
	}
	SetBatchSize(0) // invalid selects the default
	if BatchSize() != DefaultBatchSize {
		t.Errorf("BatchSize after reset = %d", BatchSize())
	}
}

// FuzzBatchDifferential is the three-way differential fuzzer: on every
// parseable expression and random row set, the interpreter, the scalar
// program and the typed batch program must agree on values, and the
// compiled engines must fail on the identical first row (and compile the
// identical Refs). Rows come from two generators: the historical
// per-cell-random one (mixed-type columns, driving the typed engine's
// boxed fallbacks) and a NULL-heavy one with a stable type per column (driving the native int64/
// float64/string/bool kernels, including the 2^53 float-widening edge).
// Seeds reuse the FuzzParseExpr corpus, like FuzzCompileDifferential.
func FuzzBatchDifferential(f *testing.F) {
	seeds := []string{
		`(O.i_flux - T.i_flux) > 2`,
		`1 + 2 * 3 = 7 AND 2 < 3 OR FALSE`,
		`a.name = 'O''Neill'`,
		`ABS(O.a + T.b) > 1 AND O.c IS NULL AND T.d IN (1, O.e) AND O.f BETWEEN 1 AND 2`,
		`x LIKE '%''%'`,
		`COALESCE(a, b, 1) % 2 = 0`,
		`NOT NOT NOT x`,
		`a / b > c OR d % e = 0`,
		// Typed fast paths and their fallbacks: NULL-heavy mixed int/float
		// comparisons, widening equality, native AND/OR spines.
		`a = b AND a <= 9007199254740993 AND b >= -5`,
		`a IS NULL OR a > 0.5 AND b <> 2`,
		`a + 0.5 > b AND a % 3 = 0`,
		`a < b OR b IS NULL AND a * 2 >= b`,
	}
	for _, s := range seeds {
		f.Add(s, int64(1))
	}
	for _, s := range parseExprCorpus(f) {
		f.Add(s, int64(2))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			return
		}
		cols := sqlparse.Columns(e)
		if len(cols) > 64 {
			return
		}
		layout := MapLayout{}
		for i, c := range cols {
			key := c.Column
			if c.Table != "" {
				key = c.Table + "." + c.Column
			}
			layout[key] = i
		}
		prog, serr := Compile(e, layout)
		tprog, terr := CompileTyped(e, layout)
		if (serr != nil) != (terr != nil) {
			t.Fatalf("%q: scalar compile err=%v, typed compile err=%v", src, serr, terr)
		}
		if serr != nil {
			return
		}
		sref, tref := prog.Refs(), tprog.Refs()
		if len(sref) != len(tref) {
			t.Fatalf("%q: scalar refs %v, typed refs %v", src, sref, tref)
		}
		for i := range sref {
			if sref[i] != tref[i] {
				t.Fatalf("%q: scalar refs %v, typed refs %v", src, sref, tref)
			}
		}

		const nRows = 5
		check := func(rows [][]value.Value) {
			want, wantErrRow, wantErr := scalarRowResults(prog, rows)
			// Interpreter vs scalar: error presence and values per row (the
			// interpreter has no batch, so only rows the scalar scan reaches).
			for r, row := range rows {
				if wantErrRow >= 0 && r > wantErrRow {
					break
				}
				iv, ierr := Eval(e, envFromLayout(layout, row))
				if (ierr != nil) != (wantErrRow == r) {
					t.Fatalf("%q row %d: interpreter err=%v, scalar err row=%d", src, r, ierr, wantErrRow)
				}
				if ierr == nil && (!value.Equal(iv, want[r]) || iv.Type() != want[r].Type()) {
					t.Fatalf("%q row %d: interpreter=%v (%v), scalar=%v (%v)", src, r, iv, iv.Type(), want[r], want[r].Type())
				}
			}
			// Typed batch vs the same reference (all chunkings + Filter).
			typedCompare(t, src, layout, rows, want, wantErrRow, wantErr)
		}

		rows := make([][]value.Value, nRows)
		for r := range rows {
			rows[r] = fuzzRow(len(cols), seed+int64(r))
		}
		check(rows)
		check(fuzzTypedRows(len(cols), nRows, seed))
	})
}

// benchScanRows builds the 10k-row-style selective scan input: roughly 5%
// of rows pass benchExpr, with every conjunct selective enough that the
// batch engine's shrinking selection vectors matter.
func benchScanRows(n int) [][]value.Value {
	rng := rand.New(rand.NewSource(42))
	rows := make([][]value.Value, n)
	types := []string{"GALAXY", "STAR", "QSO"}
	for i := range rows {
		name := "UGC 100"
		if rng.Intn(2) == 0 {
			name = fmt.Sprintf("NGC %d", rng.Intn(8000))
		}
		rows[i] = []value.Value{
			value.String(types[rng.Intn(len(types))]), // O.type
			value.Float(rng.Float64() * 20),           // O.i_flux
			value.Float(rng.Float64() * 20),           // T.i_flux
			value.Float(rng.Float64()*180 - 90),       // O.dec
			value.String(name),                        // name
			value.Int(int64(rng.Intn(20))),            // n
			value.Int(int64(rng.Intn(200)) - 100),     // x
		}
	}
	return rows
}

// BenchmarkCompiledExprScan is the row-at-a-time engine over a 10k-row
// selective scan: one EvalBool per row through the closure tree. This is
// the baseline BenchmarkTypedBatchExpr is measured against (same rows,
// same predicate, same per-op work).
func BenchmarkCompiledExprScan(b *testing.B) {
	e, err := sqlparse.ParseExpr(benchExpr)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(e, stdLayout)
	if err != nil {
		b.Fatal(err)
	}
	rows := benchScanRows(10000)
	want := 0
	for _, row := range rows {
		ok, err := prog.EvalBool(row)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			want++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		for _, row := range rows {
			ok, err := prog.EvalBool(row)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				got++
			}
		}
		if got != want {
			b.Fatalf("got %d, want %d", got, want)
		}
	}
}
