package lint

import (
	"fmt"
	"io"
	"path/filepath"
)

// WriteText prints diagnostics in the conventional file:line:col form,
// with paths relative to root when possible.
func WriteText(w io.Writer, root string, diags []Diagnostic) error {
	for _, d := range diags {
		file := d.File
		if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
			file = rel
		}
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", file, d.Line, d.Col, d.Analyzer, d.Message); err != nil {
			return err
		}
	}
	return nil
}
