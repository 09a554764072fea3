// Package golden checks test output against JSON files checked in under
// the calling package's testdata/ directory. It follows the convention
// of internal/core's rendered-markdown goldens: a test binary run with
// -update rewrites the files instead of comparing, e.g.
//
//	go test ./internal/measure -run Parity -update
package golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite JSON golden files under testdata/")

// JSON marshals v as indented JSON (map keys sorted, so the encoding is
// deterministic) and requires it to equal testdata/<name>.golden.json
// byte for byte. Under -update it writes the file instead.
func JSON(t testing.TB, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		line, g, w := firstDiffLine(got, want)
		t.Errorf("%s differs at line %d:\n got: %s\nwant: %s", path, line, g, w)
	}
}

// firstDiffLine returns the 1-based number of the first line on which a
// and b differ, with that line from each.
func firstDiffLine(a, b []byte) (int, string, string) {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; ; i++ {
		var x, y []byte
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if !bytes.Equal(x, y) || i >= len(al) || i >= len(bl) {
			return i + 1, string(x), string(y)
		}
	}
}
