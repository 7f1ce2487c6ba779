package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestParseArgs pins the flag-validation contract: shard mode and cluster
// mode each accept their own flags, and every contradictory combination
// exits with a usage error whose message names the flag and points at the
// shard-side alternative — exit status 2 territory, mirroring cmd/gcr.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = must parse; otherwise a substring of the usage error
	}{
		{name: "defaults", args: nil},
		{name: "shard with snapshot and chaos", args: []string{
			"-addr", ":9101", "-cache", "256", "-snapshot", "/tmp/s.snap", "-chaos", "seed=1,error=50"}},
		{name: "shard warmup delay", args: []string{"-warmup-delay", "250ms"}},
		{name: "cluster basic", args: []string{
			"-cluster", "http://127.0.0.1:9101,http://127.0.0.1:9102"}},
		{name: "cluster with front-tier knobs", args: []string{
			"-cluster", "http://127.0.0.1:9101", "-cache", "512",
			"-probe-interval", "500ms", "-timeout", "1m", "-grace", "5s"}},

		{name: "bad addr", args: []string{"-addr", "nope"},
			wantErr: "not a host:port"},
		{name: "bad chaos spec", args: []string{"-chaos", "bogus=1"},
			wantErr: "-chaos"},
		{name: "probe-interval without cluster", args: []string{"-probe-interval", "2s"},
			wantErr: "-probe-interval only applies with -cluster"},

		{name: "cluster+chaos", args: []string{"-cluster", "http://h:1", "-chaos", "seed=1,error=10"},
			wantErr: "-cluster and -chaos are mutually exclusive"},
		{name: "cluster+snapshot", args: []string{"-cluster", "http://h:1", "-snapshot", "/tmp/x"},
			wantErr: "shard-side"},
		{name: "cluster+warmup", args: []string{"-cluster", "http://h:1", "-warmup-delay", "1s"},
			wantErr: "-warmup-delay to the restarted shard"},
		{name: "cluster+verify", args: []string{"-cluster", "http://h:1", "-verify"},
			wantErr: "-verify to the shard"},
		{name: "cluster+workers", args: []string{"-cluster", "http://h:1", "-workers", "4"},
			wantErr: "front tier does no routing work"},
		{name: "cluster+queue", args: []string{"-cluster", "http://h:1", "-queue", "32"},
			wantErr: "admission control is shard-side"},

		{name: "cluster empty list", args: []string{"-cluster", " , "},
			wantErr: "at least one shard URL"},
		{name: "cluster relative url", args: []string{"-cluster", "127.0.0.1:9101"},
			wantErr: "not an absolute shard URL"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseArgs(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseArgs(%q) failed: %v", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseArgs(%q) accepted; want error containing %q", tc.args, tc.wantErr)
			}
			var ue *usageError
			if !errors.As(err, &ue) {
				t.Fatalf("parseArgs(%q) error %v is not a usageError (would exit 1, want 2)", tc.args, err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseArgs(%q) error %q does not contain %q", tc.args, err, tc.wantErr)
			}
			_ = cfg
		})
	}
}

// TestParseArgsClusterConfig checks that front-tier flags land on the
// right cluster.Config inputs (cache → L1, timeout → forward budget).
func TestParseArgsClusterConfig(t *testing.T) {
	cfg, err := parseArgs([]string{
		"-cluster", " http://127.0.0.1:9101 ,http://127.0.0.1:9102,",
		"-cache", "777", "-timeout", "90s"})
	if err != nil {
		t.Fatal(err)
	}
	shards := splitShards(cfg.cluster)
	if len(shards) != 2 || shards[0] != "http://127.0.0.1:9101" {
		t.Fatalf("splitShards: %q", shards)
	}
	if cfg.cacheSize != 777 || cfg.timeout != 90*time.Second {
		t.Fatalf("cfg: cache=%d timeout=%v", cfg.cacheSize, cfg.timeout)
	}
}
