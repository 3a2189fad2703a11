package lint

import "testing"

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determfix", Determinism)
}

// TestDeterminismScoping proves the analyzer stays silent for packages
// outside the pipeline that have not opted in, even when they contain
// would-be violations.
func TestDeterminismScoping(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir("testdata/src/determnoscope")
	if err != nil {
		t.Fatal(err)
	}
	if diags, _ := Run([]*Package{pkg}, []*Analyzer{Determinism}); len(diags) != 0 {
		t.Errorf("determinism fired outside its scope:\n%s", fmtDiags(diags))
	}
}

func TestErrSinkFixture(t *testing.T) {
	runFixture(t, "errsinkfix", ErrSink)
}

func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, "ctxfix", CtxFlow)
}

// TestCtxFlowScoping proves ctxflow stays silent for packages outside
// the request path that have not opted in (determnoscope has no scope
// directive for it).
func TestCtxFlowScoping(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir("testdata/src/determnoscope")
	if err != nil {
		t.Fatal(err)
	}
	if diags, _ := Run([]*Package{pkg}, []*Analyzer{CtxFlow}); len(diags) != 0 {
		t.Errorf("ctxflow fired outside its scope:\n%s", fmtDiags(diags))
	}
}

func TestGoroLeakFixture(t *testing.T) {
	runFixture(t, "gorofix", GoroLeak)
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, "hotfix", HotAlloc)
}

// TestHotAllocScoping proves hotalloc only fires in files carrying the
// //walrus:lint-hot directive: a package with none is silent even when
// it allocates in loops.
func TestHotAllocScoping(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir("testdata/src/determnoscope")
	if err != nil {
		t.Fatal(err)
	}
	if diags, _ := Run([]*Package{pkg}, []*Analyzer{HotAlloc}); len(diags) != 0 {
		t.Errorf("hotalloc fired without a lint-hot directive:\n%s", fmtDiags(diags))
	}
}

func TestLockDisciplineFixture(t *testing.T) {
	runFixture(t, "lockfix", LockDiscipline)
}

func TestParallelConvFixture(t *testing.T) {
	runFixture(t, "parfix", ParallelConv)
}

func TestObsFixture(t *testing.T) {
	runFixture(t, "obsfix", Obs)
}

func TestSnapshotSafeFixture(t *testing.T) {
	runFixture(t, "snapfix", SnapshotSafe)
}

// TestSnapshotSafeScoping proves the analyzer stays silent for packages
// outside the module root that have not opted in, even when they define
// a type named Snapshot.
func TestSnapshotSafeScoping(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir("testdata/src/determnoscope")
	if err != nil {
		t.Fatal(err)
	}
	if diags, _ := Run([]*Package{pkg}, []*Analyzer{SnapshotSafe}); len(diags) != 0 {
		t.Errorf("snapshotsafe fired outside its scope:\n%s", fmtDiags(diags))
	}
}

// TestObsScoping proves the obs analyzer stays silent for packages outside
// the instrumented set that have not opted in (determnoscope reads the
// clock directly and carries no scope directive for obs).
func TestObsScoping(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir("testdata/src/determnoscope")
	if err != nil {
		t.Fatal(err)
	}
	if diags, _ := Run([]*Package{pkg}, []*Analyzer{Obs}); len(diags) != 0 {
		t.Errorf("obs fired outside its scope:\n%s", fmtDiags(diags))
	}
}

// TestIgnoreDirectives exercises the //walrus:lint-ignore escape hatch:
// documented ignores suppress, undocumented ones are diagnostics
// themselves (and suppress nothing), unknown analyzers and malformed
// directives are reported.
func TestIgnoreDirectives(t *testing.T) {
	runFixture(t, "ignorefix", Determinism)
}

func TestAllAnalyzersRegistered(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"ctxflow", "determinism", "errsink", "goroleak", "hotalloc", "lockdiscipline", "obs", "parallelconv", "snapshotsafe"} {
		if !names[want] {
			t.Errorf("All() is missing analyzer %q", want)
		}
	}
}
