package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text       string
		wantOK     bool
		wantNames  string // comma-joined
		wantReason string
	}{
		{"//reprolint:allow detrand boot-time banner", true, "detrand", "boot-time banner"},
		{"//reprolint:allow maporder x", true, "maporder", "x"},
		{"//reprolint:allow detrand,looponly shared startup path", true, "detrand,looponly", "shared startup path"},
		{"//reprolint:allow noalloc,nonblock,lockorder r", true, "noalloc,nonblock,lockorder", "r"},
		{"//reprolint:allow detrand", false, "", ""},          // reason mandatory
		{"//reprolint:allow", false, "", ""},                  // analyzer mandatory
		{"//reprolint:allow detrand,, reason", false, "", ""}, // empty name in list
		{"// plain comment", false, "", ""},
	}
	for _, c := range cases {
		names, reason, ok := parseAllow(c.text)
		joined := strings.Join(names, ",")
		if ok != c.wantOK || joined != c.wantNames || reason != c.wantReason {
			t.Errorf("parseAllow(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, joined, reason, ok, c.wantNames, c.wantReason, c.wantOK)
		}
	}
}

func TestCheckAllowComments(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //reprolint:allow detrand justified reason
	_ = 2 //reprolint:allow detrand
	_ = 3 //reprolint:allow nosuchanalyzer some reason
	_ = 4 //reprolint:allow detrand,nosuch list with unknown member
	_ = 5 //reprolint:allow lockorder,nonblock,noalloc all known, fine
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags := CheckAllowComments(fset, []*ast.File{f})
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "malformed") {
		t.Errorf("first diagnostic should flag the missing reason, got %q", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "unknown analyzer") {
		t.Errorf("second diagnostic should flag the unknown analyzer, got %q", diags[1].Message)
	}
	if !strings.Contains(diags[2].Message, `unknown analyzer "nosuch"`) {
		t.Errorf("third diagnostic should flag the unknown list member, got %q", diags[2].Message)
	}
}

func TestIsEnginePackage(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/core":      true,
		"repro/internal/broadcast": true,
		"repro/internal/livenet":   false,
		"repro/internal/workload":  false,
		"repro/cmd/reprolint":      false,
		"core":                     true,
		"util":                     false,
	} {
		if got := IsEnginePackage(path); got != want {
			t.Errorf("IsEnginePackage(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestTrimTestVariant(t *testing.T) {
	if got := TrimTestVariant("repro/internal/core [repro/internal/core.test]"); got != "repro/internal/core" {
		t.Errorf("got %q", got)
	}
	if got := TrimTestVariant("repro/internal/core"); got != "repro/internal/core" {
		t.Errorf("got %q", got)
	}
}
