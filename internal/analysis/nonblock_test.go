package analysis

import (
	"go/importer"
	"go/token"
	"go/types"
	"testing"
)

func TestNonBlock(t *testing.T) {
	pass := testAnalyzer(t, NonBlock, "nonblock", "core", nil)
	// The two allow-suppressed channel sends must be retained for audit.
	if n := len(pass.SuppressedDiagnostics()); n != 1 {
		t.Errorf("suppressed findings = %d, want 1 (HandleAllowed's send; sendAllowed is not a root)", n)
	}
	// Non-root blockers still export facts for dependents.
	var haveHelper bool
	for _, f := range pass.ExportedFuncFacts() {
		if f.Analyzer == "nonblock" && f.Fn == "core.E.background" && f.Attr == "blocks" {
			haveHelper = true
		}
	}
	if !haveHelper {
		t.Error("missing blocks fact for core.E.background")
	}
}

// TestNonBlockImportedFacts: a dependency's blocks fact fires in a local
// root, and the sanctioned livenet.Host.Do bridge is exempt even with a
// fact claiming it blocks.
func TestNonBlockImportedFacts(t *testing.T) {
	dep := loadDepPackage(t, "nonblock_dep", "livenet")
	imp := depImporter{
		pkgs:     map[string]*types.Package{"livenet": dep},
		fallback: importer.ForCompiler(token.NewFileSet(), "source", nil),
	}
	facts := &Facts{Funcs: []FuncFact{
		{Analyzer: "nonblock", Fn: "livenet.Flush", Attr: "blocks", Detail: "fsync (os.File.Sync)"},
		{Analyzer: "nonblock", Fn: "livenet.Host.Do", Attr: "blocks", Detail: "channel send"},
	}}
	testAnalyzerImp(t, NonBlock, "nonblock_imported", "core", facts, imp)
}

// TestNonBlockCommitPipeline: the group-commit layer has no package-wide
// exemption. Its hot path exports no blocks fact because it hands the fsync
// to another goroutine, the syncer's half does export one, the justified
// loop-side waits (Barrier's drain, the write a closing runtime refused)
// keep their functions' summaries clean, and an unjustified wait on the loop
// is reported.
func TestNonBlockCommitPipeline(t *testing.T) {
	pass := testAnalyzer(t, NonBlock, "nonblock_commitpipe", "commitpipe", nil)
	blocks := make(map[string]bool)
	for _, f := range pass.ExportedFuncFacts() {
		if f.Analyzer == "nonblock" && f.Attr == "blocks" {
			blocks[f.Fn] = true
		}
	}
	for fn, want := range map[string]bool{
		"commitpipe.Pipeline.writeSync":   true,
		"commitpipe.Pipeline.Unjustified": true,
		"commitpipe.Pipeline.Submit":      false,
		"commitpipe.Pipeline.onSynced":    false,
		"commitpipe.Pipeline.Barrier":     false,
	} {
		if blocks[fn] != want {
			t.Errorf("blocks fact for %s = %v, want %v", fn, blocks[fn], want)
		}
	}
}

// TestNonBlockSanctioned: the one designed escape is matched by exact key
// under both path forms.
func TestNonBlockSanctioned(t *testing.T) {
	if !isNonBlockSanctioned("repro/internal/livenet.Host.Do") || !isNonBlockSanctioned("livenet.Host.Do") {
		t.Error("livenet.Host.Do must be sanctioned under both path forms")
	}
	if isNonBlockSanctioned("repro/internal/livenet.Host.Done") {
		t.Error("sanction must match the exact key")
	}
}
