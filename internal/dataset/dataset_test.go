package dataset

import (
	"testing"
)

func TestSpecsComplete(t *testing.T) {
	specs := Specs()
	if len(specs) != 6 {
		t.Fatalf("Specs = %d, want 6 (paper Table I)", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Build == nil {
			t.Errorf("incomplete spec %+v", s)
		}
		if names[s.Name] {
			t.Errorf("duplicate name %s", s.Name)
		}
		names[s.Name] = true
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("WikiVote-S"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestLoadSmallScale(t *testing.T) {
	// Load every dataset at a tiny scale; verify structural validity,
	// determinism and caching.
	for _, s := range Specs() {
		g, err := Load(s.Name, 0.02)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", s.Name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if g.Name() != s.Name {
			t.Errorf("%s: graph named %q", s.Name, g.Name())
		}
		again, err := Load(s.Name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if again != g {
			t.Errorf("%s: cache miss on identical load", s.Name)
		}
	}
}

func TestDegreeRegimes(t *testing.T) {
	// The social stand-ins must be skewed; that is the property the
	// paper's fine-grained task partitioning targets.
	wiki, err := Load("WikiVote-S", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if float64(wiki.MaxDegree()) < 3*wiki.AvgDegree() {
		t.Errorf("WikiVote-S not skewed: max %d avg %.1f", wiki.MaxDegree(), wiki.AvgDegree())
	}
	// Social graphs need triangles (pattern workloads depend on them).
	if wiki.Triangles() == 0 {
		t.Error("WikiVote-S has no triangles")
	}
	tw, err := Load("Twitter-S", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if float64(tw.MaxDegree()) < 5*tw.AvgDegree() {
		t.Errorf("Twitter-S not heavy-tailed: max %d avg %.1f", tw.MaxDegree(), tw.AvgDegree())
	}
}

func TestSortedNames(t *testing.T) {
	names := SortedNames()
	if len(names) != 6 {
		t.Fatal("wrong count")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("not sorted")
		}
	}
}
