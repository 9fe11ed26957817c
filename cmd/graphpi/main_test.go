package main

import (
	"strings"
	"testing"
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
		{"negative hub floor", func(f *flagState) { f.hubFloor = -1 }, "-hub-floor"},
		{"negative max jobs", func(f *flagState) { f.serverAddr = ":8080"; f.maxJobs = -5 }, "-max-jobs"},
		{"negative max queue", func(f *flagState) { f.serverAddr = ":8080"; f.maxQueue = -1 }, "-max-queue"},
		{"negative plan cache", func(f *flagState) { f.serverAddr = ":8080"; f.cacheBytes = -1 }, "-plan-cache"},
		{"bad server addr", func(f *flagState) { f.serverAddr = "8080" }, "not host:port"},
		{"bad serve addr", func(f *flagState) { f.serveAddr = "no-port" }, "not host:port"},
		{"tier one-shot", func(f *flagState) { f.tierName = "generated" }, ""},
		{"tier+server", func(f *flagState) { f.serverAddr = ":8080"; f.tierName = "interpret" }, "-tier does not apply to -server"},
		{"tier+serve", func(f *flagState) { f.serveAddr = ":9421"; f.tierName = "generated" }, "-tier does not apply to -serve"},
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
