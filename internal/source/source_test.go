package source

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("for (i = 0; i < n; i++) { A[i] += 2.5; } // c\n/* block */ x = y && !z;")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	var kinds []TokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokenKind{
		KwFor, LPAREN, IDENT, ASSIGN, INTLIT, SEMI, IDENT, LT, IDENT, SEMI,
		IDENT, PLUSPLUS, RPAREN, LBRACE, IDENT, LBRACK, IDENT, RBRACK,
		PLUSEQ, FLOATLIT, SEMI, RBRACE,
		IDENT, ASSIGN, IDENT, ANDAND, NOT, IDENT, SEMI, EOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := map[string]TokenKind{
		"42":     INTLIT,
		"3.14":   FLOATLIT,
		"1e10":   FLOATLIT,
		"2.5e-3": FLOATLIT,
		".5":     FLOATLIT,
	}
	for src, kind := range cases {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", src, err)
		}
		if toks[0].Kind != kind || toks[0].Text != src {
			t.Errorf("Tokenize(%q) = %v %q, want %v", src, toks[0].Kind, toks[0].Text, kind)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"a & b", "a | b", "a $ b", "/* unterminated"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q): expected error", src)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"int n = 100;\nfloat A[100];\nfor (i = 0; i < n; i++) {\n  A[i] = A[i - 1] + 1.0;\n}\n",
		"if (x < y) {\n  x = x + 1;\n} else {\n  y = y + 1;\n}\n",
		"while (a[i + 2] > 0) {\n  a[i] = a[i + 2];\n  i++;\n}\n",
		"par {\n  a[i] = t1;\n  t2 = a[i + 1];\n}\n",
		"x = b * c + -d / (e - f) % g;\n",
		"c = x < y && y < z || !done;\n",
		"v = p > 0 ? p : -p;\n",
		"X[k][i] = X[k][j] * 2;\n",
		"s = sqrt(abs(x) + max(a, b));\n",
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		out1 := Print(p1)
		p2, err := Parse(out1)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v\nprinted:\n%s", src, err, out1)
		}
		out2 := Print(p2)
		if out1 != out2 {
			t.Errorf("round trip not stable for %q:\nfirst:\n%s\nsecond:\n%s", src, out1, out2)
		}
	}
}

func TestParseCommaIndices(t *testing.T) {
	// The paper writes X[k, i]; it must parse the same as X[k][i].
	p1 := MustParse("X[k, i] = 0;")
	p2 := MustParse("X[k][i] = 0;")
	if Print(p1) != Print(p2) {
		t.Errorf("comma and bracket indexing differ: %q vs %q", Print(p1), Print(p2))
	}
	ix := p1.Stmts[0].(*Assign).LHS.(*IndexExpr)
	if len(ix.Indices) != 2 {
		t.Fatalf("want 2 indices, got %d", len(ix.Indices))
	}
}

func TestParseCommaDecl(t *testing.T) {
	p := MustParse("int i, j, k;")
	b, ok := p.Stmts[0].(*Block)
	if !ok || len(b.Stmts) != 3 {
		t.Fatalf("comma decl should expand to 3 decls, got %v", Print(p))
	}
}

func TestParseForDeclInit(t *testing.T) {
	p := MustParse("for (int i = 0; i < 10; i++) { s += i; }")
	f := p.Stmts[0].(*For)
	d, ok := f.Init.(*Decl)
	if !ok || d.Name != "i" || d.Type != TInt {
		t.Fatalf("for-init decl not parsed: %#v", f.Init)
	}
}

func TestParseIncDecDesugar(t *testing.T) {
	p := MustParse("i++; j--;")
	a1 := p.Stmts[0].(*Assign)
	a2 := p.Stmts[1].(*Assign)
	if a1.Op != AAdd || a2.Op != ASub {
		t.Fatalf("++/-- not desugared: %v %v", a1.Op, a2.Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"for (i = 0; i < n; i++) {",
		"x = ;",
		"if x < y { }",
		"3 = x;",
		"float A[10] = 5;",
		"x ++ y;",
		"a[i = 3;",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestPaperStylePar(t *testing.T) {
	p := MustParse("par { a[i] = t1; t2 = a[i + 1]; }")
	out := PrintPaper(p)
	if !strings.Contains(out, "a[i] = t1; || t2 = a[i + 1];") {
		t.Errorf("paper style output wrong:\n%s", out)
	}
	// Default style must be re-parseable.
	out2 := Print(p)
	if _, err := Parse(out2); err != nil {
		t.Errorf("default style not parseable: %v\n%s", err, out2)
	}
}

func TestPrecedencePrinting(t *testing.T) {
	cases := []string{
		"x = (a + b) * c;",
		"x = a - (b - c);",
		"x = a / (b * c);",
		"x = -(a + b);",
		"c = !(a && b);",
		"x = a - (b + c);",
	}
	for _, src := range cases {
		p := MustParse(src)
		out := strings.TrimSpace(Print(p))
		if out != src {
			t.Errorf("Print(Parse(%q)) = %q", src, out)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := MustParse("for (i = 0; i < n; i++) { A[i] = A[i - 1] + x; }")
	c := CloneProgram(p)
	// Mutate the clone and check the original is untouched.
	f := c.Stmts[0].(*For)
	f.Body.Stmts[0].(*Assign).RHS = &IntLit{Value: 42}
	orig := Print(p)
	if strings.Contains(orig, "42") {
		t.Fatal("clone shares structure with original")
	}
}

func TestSubstVar(t *testing.T) {
	e, err := ParseExpr("a[i + 1] + i * 2 + b")
	if err != nil {
		t.Fatal(err)
	}
	repl, _ := ParseExpr("i + 3")
	got := ExprString(SubstVar(e, "i", repl))
	want := "a[i + 3 + 1] + (i + 3) * 2 + b"
	if got != want {
		t.Errorf("SubstVar = %q, want %q", got, want)
	}
}

func TestRenameVarStmt(t *testing.T) {
	p := MustParse("reg = A[i + 2];")
	s := CloneStmt(p.Stmts[0])
	RenameVarStmt(s, "reg", "reg1")
	if got := PrintStmt(s); got != "reg1 = A[i + 2];" {
		t.Errorf("RenameVarStmt = %q", got)
	}
	// Array names must not be renamed.
	p2 := MustParse("A = B[A + 1];")
	s2 := CloneStmt(p2.Stmts[0])
	RenameVarStmt(s2, "B", "C")
	if got := PrintStmt(s2); got != "A = B[A + 1];" {
		t.Errorf("array name renamed: %q", got)
	}
}

func TestWalkExprsCount(t *testing.T) {
	e, _ := ParseExpr("a[i + 1] * (b + c)")
	n := 0
	WalkExprs(e, func(Expr) bool { n++; return true })
	// a[i+1], i+1, i, 1, b+c (walks: mul, index, add, i, 1, add, b, c) = 8
	if n != 8 {
		t.Errorf("WalkExprs visited %d nodes, want 8", n)
	}
}

// Property: printing then reparsing any expression built from a random
// structure yields the same printed form (print∘parse is idempotent).
func TestPrintParseIdempotentQuick(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExpr(newRand(seed), 3)
		s1 := ExprString(e)
		e2, err := ParseExpr(s1)
		if err != nil {
			t.Logf("parse error on %q: %v", s1, err)
			return false
		}
		// One parse may normalize (e.g. fold -(-79) to 79); after that the
		// printed form must be a fixpoint.
		s2 := ExprString(e2)
		e3, err := ParseExpr(s2)
		if err != nil {
			t.Logf("parse error on normalized %q: %v", s2, err)
			return false
		}
		return ExprString(e3) == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Tiny deterministic linear congruential generator so the property test
// does not depend on math/rand APIs.
type lcg struct{ s uint64 }

func newRand(seed int64) *lcg { return &lcg{s: uint64(seed)*2862933555777941757 + 3037000493} }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 33
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

func randomExpr(r *lcg, depth int) Expr {
	if depth == 0 || r.intn(3) == 0 {
		switch r.intn(3) {
		case 0:
			return &IntLit{Value: int64(r.intn(100))}
		case 1:
			return &VarRef{Name: string(rune('a' + r.intn(5)))}
		default:
			return &IndexExpr{Name: "A", Indices: []Expr{randomExpr(r, 0)}}
		}
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpLT, OpEQ, OpAnd, OpOr}
	switch r.intn(4) {
	case 0:
		return &Unary{Op: OpNeg, X: randomExpr(r, depth-1)}
	default:
		return &Binary{Op: ops[r.intn(len(ops))], X: randomExpr(r, depth-1), Y: randomExpr(r, depth-1)}
	}
}

// Property: the lexer and parser never panic, on any byte soup — they
// either produce a program or return an error.
func TestParserNeverPanicsQuick(t *testing.T) {
	alphabet := []byte("abiAB01 ;=+-*/%<>!&|(){}[].,?:\n\tforwhileifelseintfloatboolpar")
	f := func(seed int64, n uint8) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		r := newRand(seed)
		buf := make([]byte, int(n))
		for i := range buf {
			buf[i] = alphabet[r.intn(len(alphabet))]
		}
		_, _ = Parse(string(buf))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Simplify never changes the value of constant integer
// expressions.
func TestSimplifyPreservesConstantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		e := randomExpr(r, 3)
		v1, ok1 := ConstInt(e)
		v2, ok2 := ConstInt(Simplify(e))
		if ok1 != ok2 && ok1 {
			// Simplification must not lose constant-ness.
			return false
		}
		if ok1 && ok2 && v1 != v2 {
			t.Logf("Simplify changed %s: %d vs %d", ExprString(e), v1, v2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestFingerprintMemoDiesWithProgram fingerprints many distinct parsed
// programs and drops them: the memoized hash lives on the AST, so once
// the programs are garbage the heap must come back to where it started
// (a process-wide memo keyed by *Program would pin every AST).
func TestFingerprintMemoDiesWithProgram(t *testing.T) {
	const n = 4000
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i := 0; i < n; i++ {
		p := MustParse(fmt.Sprintf("float A[%d]; for (i = 0; i < %d; i++) { A[i] = A[i] * %d.5 + 1.0; }", i+8, i+4, i))
		if Fingerprint(p) != Fingerprint(p) {
			t.Fatal("fingerprint not stable")
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if grown := int64(ms.HeapAlloc) - int64(before); grown > 512<<10 {
		t.Errorf("heap grew %d KiB over %d dropped programs: fingerprinting retains them", grown>>10, n)
	}
}
