package agentloc_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// gobImporters is every non-test file of this module allowed to import
// encoding/gob, and what it encodes with it.
var gobImporters = []string{
	"internal/centralized/centralized.go", // baseline scheme's agent state
	"internal/core/messages.go",           // gob.Register of IAgentBehavior, a split's newborn on the wire
	"internal/forwarding/forwarding.go",   // baseline scheme's agent state
	"internal/platform/platform.go",       // mobile-agent state capture
	"internal/transport/rpc.go",           // the payload codec of messages without a binary form
	"internal/workload/workload.go",       // roaming TAgents' migrating state
}

// TestGobImportersArePinned: gob is a payload codec and a state-capture
// format, in the places listed — not a second stream format, which is what it
// was when the TCP link imported it.
func TestGobImportersArePinned(t *testing.T) {
	var got []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/ is a module of its own.
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				got = append(got, filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !slices.Equal(got, gobImporters) {
		t.Errorf("non-test files importing encoding/gob:\n  %s\nwant:\n  %s\n"+
			"a message's codec is decided by its type in transport.Encode and a connection has one stream format: "+
			"read DESIGN.md §10, \"One stream format, two payload codecs\", before adding an importer",
			strings.Join(got, "\n  "), strings.Join(gobImporters, "\n  "))
	}
}
