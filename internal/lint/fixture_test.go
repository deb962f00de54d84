package lint

import "testing"

// Each analyzer runs over three fixture flavors: true positives (every
// finding pinned by a want comment), an allowlisted package (justified
// //hgwlint:allow annotations suppress everything), and a clean package
// (the sanctioned idioms produce nothing).

func runFixtures(t *testing.T, a *Analyzer, paths ...string) {
	t.Helper()
	res, err := RunFixture(a, ".", paths...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatches) > 0 {
		t.Errorf("%s fixtures:\n%s", a.Name, res.Failf())
	}
}

func TestDetLintFixtures(t *testing.T) {
	runFixtures(t, DetLint, "det/bad", "det/clean", "det/allowed", "hgw/cmd/allowed")
}

func TestPoolLintFixtures(t *testing.T) {
	runFixtures(t, PoolLint, "pool/bad", "pool/clean", "pool/allowed", "pool/release")
}

func TestExhaustLintFixtures(t *testing.T) {
	runFixtures(t, ExhaustLint, "exhaust/bad", "exhaust/clean", "exhaust/allowed")
}

func TestDropLintFixtures(t *testing.T) {
	runFixtures(t, DropLint, "drop/bad", "drop/clean", "drop/allowed")
}

func TestObsLintFixtures(t *testing.T) {
	runFixtures(t, ObsLint, "obslint/bad", "obslint/clean", "obslint/allowed")
}

// TestAnnotationHygiene checks that a malformed annotation is itself a
// finding: the driver injects them under the pseudo-analyzer name
// "hgwlint", so a typo cannot silently disable a check.
func TestAnnotationHygiene(t *testing.T) {
	res, err := RunFixture(DetLint, ".", "badallow")
	if err != nil {
		t.Fatal(err)
	}
	hygiene, detlint := 0, 0
	for _, d := range res.Diagnostics {
		switch d.Analyzer {
		case "hgwlint":
			hygiene++
		case "detlint":
			detlint++
		}
	}
	if hygiene != 3 {
		t.Errorf("expected 3 annotation-hygiene findings, got %d:\n%v", hygiene, res.Diagnostics)
	}
	// The reason-less allow must NOT suppress the wall-clock finding it
	// sits above.
	if detlint != 1 {
		t.Errorf("expected the malformed allow to leave 1 detlint finding, got %d:\n%v", detlint, res.Diagnostics)
	}
}
