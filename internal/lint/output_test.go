package lint

import (
	"strings"
	"testing"
)

func TestWriteText(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "errsink", File: "/mod/persist.go", Line: 12, Col: 3, Message: "dropped error"},
		{Analyzer: "determinism", File: "/elsewhere/x.go", Line: 1, Col: 1, Message: "wall clock"},
	}
	var sb strings.Builder
	if err := WriteText(&sb, "/mod", diags); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, "persist.go:12:3: errsink: dropped error") {
		t.Errorf("in-module path not relativized:\n%s", got)
	}
	if !strings.Contains(got, "/elsewhere/x.go:1:1: determinism: wall clock") {
		t.Errorf("out-of-module path mangled:\n%s", got)
	}
}
