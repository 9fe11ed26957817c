package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"

	"graphpi"
)

// TestValidateFlagsModeExclusivity pins the satellite contract: requesting
// two process modes errors with a message naming the conflict, instead of
// one mode silently winning.
func TestValidateFlagsModeExclusivity(t *testing.T) {
	base := flagState{nodeWorkers: 2}
	cases := []struct {
		name    string
		mutate  func(*flagState)
		wantErr string // substring; "" means valid
	}{
		{"defaults", func(f *flagState) {}, ""},
		{"server only", func(f *flagState) { f.serverAddr = ":8080" }, ""},
		{"serve only", func(f *flagState) { f.serveAddr = ":9421" }, ""},
		{"join only", func(f *flagState) { f.joinAddrs = "h:1" }, ""},
		{"nodes only", func(f *flagState) { f.nodes = 4 }, ""},
		{"server+serve", func(f *flagState) { f.serverAddr = ":8080"; f.serveAddr = ":9421" }, "mutually exclusive"},
		{"server+join", func(f *flagState) { f.serverAddr = ":8080"; f.joinAddrs = "h:1" }, "mutually exclusive"},
		{"serve+join", func(f *flagState) { f.serveAddr = ":9421"; f.joinAddrs = "h:1" }, "mutually exclusive"},
		{"server+serve+join", func(f *flagState) { f.serverAddr = ":1"; f.serveAddr = ":2"; f.joinAddrs = "h:3" }, "-server and -serve and -join"},
		{"nodes+join", func(f *flagState) { f.nodes = 2; f.joinAddrs = "h:1" }, "-nodes"},
		{"nodes+server", func(f *flagState) { f.nodes = 2; f.serverAddr = ":8080" }, "-nodes"},
		{"nodes+serve", func(f *flagState) { f.nodes = 2; f.serveAddr = ":9421" }, "-nodes"},
		{"cluster-workers without server", func(f *flagState) { f.clusterWk = "h:1" }, "-cluster-workers only applies"},
		{"cluster-workers with server", func(f *flagState) { f.serverAddr = ":8080"; f.clusterWk = "h:1" }, ""},
		{"list+server", func(f *flagState) { f.serverAddr = ":8080"; f.list = true }, "/enumerate"},
		{"emit-go+serve", func(f *flagState) { f.serveAddr = ":9421"; f.emitGo = "x.go" }, "-serve cannot"},
		{"list+join", func(f *flagState) { f.joinAddrs = "h:1"; f.list = true }, "count only"},
		{"emit-go+nodes", func(f *flagState) { f.nodes = 2; f.emitGo = "x.go" }, "count only"},
		{"negative nodes", func(f *flagState) { f.nodes = -1 }, "-nodes must be"},
		{"bad node workers", func(f *flagState) { f.nodes = 2; f.nodeWorkers = 0 }, "-node-workers"},
		{"negative max jobs", func(f *flagState) { f.serverAddr = ":8080"; f.maxJobs = -5 }, "-max-jobs"},
		{"negative max queue", func(f *flagState) { f.serverAddr = ":8080"; f.maxQueue = -1 }, "-max-queue"},
		{"bad server addr", func(f *flagState) { f.serverAddr = "8080" }, "not host:port"},
		{"bad serve addr", func(f *flagState) { f.serveAddr = "no-port" }, "not host:port"},
		{"list without limit", func(f *flagState) { f.list = true }, ""},
		{"negative limit", func(f *flagState) { f.list = true; f.limit = -3 }, "-limit must be"},
	}
	for _, tc := range cases {
		f := base
		tc.mutate(&f)
		err := validateFlags(f)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: expected error containing %q, got nil", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestListEmbeddingsLimit: -list prints exactly -limit embeddings even
// though a 4-worker plan visits from four goroutines at once, and -limit 0
// prints every embedding. Run under -race it also checks that the visits
// share the writer safely.
func TestListEmbeddingsLimit(t *testing.T) {
	g := graphpi.GenerateBA(400, 4, 3)
	plan, err := graphpi.NewPlan(g, graphpi.House(), graphpi.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	total := plan.Count()
	if total < 100 {
		t.Fatalf("fixture has only %d houses", total)
	}
	for _, limit := range []int64{1, 3, 50, 0} {
		var buf bytes.Buffer
		shown := listEmbeddings(&buf, plan, limit)
		want := limit
		if limit == 0 {
			want = total
		}
		lines := int64(strings.Count(buf.String(), "\n"))
		if shown != want || lines != want {
			t.Errorf("-limit %d: reported %d, printed %d lines, want %d", limit, shown, lines, want)
		}
	}
}

func TestParseAddrList(t *testing.T) {
	got, err := parseAddrList("-join", "h1:1, h2:2 ,h3:3")
	if err != nil || len(got) != 3 || got[1] != "h2:2" {
		t.Fatalf("parseAddrList = %v, %v", got, err)
	}
	for _, bad := range []string{",", "h1:1,,h2:2", "h1", ":1,h:2 x"} {
		if _, err := parseAddrList("-join", bad); err == nil {
			t.Errorf("address list %q accepted", bad)
		}
	}
	if got, err := parseAddrList("-join", ""); err != nil || got != nil {
		t.Fatalf("empty list = %v, %v; want nil, nil", got, err)
	}
}

// TestCLIFlags pins the CLI's flag names. It finds them with the rule the
// benchmark's surface.cli_flags count uses — every flag.X call in main.go
// with at least three arguments, flag.Parse aside — so a flag added or
// removed shows up here as a reviewed change of the list.
func TestCLIFlags(t *testing.T) {
	want := []string{
		"cluster-workers", "dataset", "emit-go", "graph", "graph-name",
		"hybrid", "iep", "join", "limit", "list", "max-jobs",
		"max-queue", "node-workers", "nodes", "pattern", "pprof", "scale",
		"serve", "server", "stats", "trace", "workers",
	}
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" || sel.Sel.Name == "Parse" || len(call.Args) < 3 {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Fatalf("flag.%s at %v: name is not a string literal", sel.Sel.Name, call.Pos())
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, name)
		return true
	})
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("CLI flags:\n got  %q\n want %q", got, want)
	}
}
