package main

import (
	"bufio"
	"bytes"
	"context"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// testdata holds the pinned tree digests of the default seed, one file per
// workload: "key digest" lines, where a serving workload's key is the
// request's index in its body pool and its digest a 16-hex-digit prefix.
//
//go:embed testdata/*.digests
var testdata embed.FS

const pinHeader = "# key tree-digest; regenerate with: bash perf/run.sh -pin perf/testdata\n"

func loadPins(workload string) (map[string]string, error) {
	data, err := testdata.ReadFile("testdata/" + workload + ".digests")
	if err != nil {
		return nil, err
	}
	pins := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s.digests: malformed line %q", workload, line)
		}
		pins[key] = digest
	}
	return pins, sc.Err()
}

// writePins regenerates the pin files in dir from the current program at
// the default seed: route-mix from one verified pass, the serving
// workloads by routing every body of their pools in-process with the
// verifier on.
func writePins(ctx context.Context, dir string) error {
	r := newRun("route-mix", config{Seed: 1})
	var b strings.Builder
	b.WriteString(pinHeader)
	for _, in := range mixInstances(1, false) {
		d, err := r.design(0, in.cfg)
		if err != nil {
			return err
		}
		rt, err := r.routeOp(ctx, 0, d, in.opts, true)
		if err != nil {
			return fmt.Errorf("%s: %w", in.label, err)
		}
		fmt.Fprintf(&b, "%s %s\n", in.label, rt.tree.Digest())
	}
	if err := os.WriteFile(filepath.Join(dir, "route-mix.digests"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	pools := map[string][][]byte{
		"serve-cold":   coldBodies(1),
		"cluster-zipf": zipfBodies(1),
	}
	for name, bodies := range pools {
		b.Reset()
		b.WriteString(pinHeader)
		for i, body := range bodies {
			d, err := localRoute(ctx, body)
			if err != nil {
				return fmt.Errorf("%s request %d: %w", name, i, err)
			}
			fmt.Fprintf(&b, "%d %s\n", i, d[:16])
		}
		if err := os.WriteFile(filepath.Join(dir, name+".digests"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
