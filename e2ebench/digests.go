package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// digestFile holds the reference digests recorded at the commit that
// defined the benchmark: size ("full" or "tiny") → reference kind →
// seed → sha256 of the output bytes. A seed without an entry is checked
// against a reference computed in the same invocation.
const digestFile = "e2ebench/testdata/digests.json"

//go:embed testdata/digests.json
var digestJSON []byte

type digestTable map[string]map[string]map[string]string

var recorded = func() digestTable {
	var t digestTable
	if err := json.Unmarshal(digestJSON, &t); err != nil {
		panic(fmt.Sprintf("%s: %v", digestFile, err)) // the file is compiled in
	}
	return t
}()

func sizeName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "full"
}

func recordedDigest(kind string, tiny bool, seed int64) (string, bool) {
	d, ok := recorded[sizeName(tiny)][kind][strconv.FormatInt(seed, 10)]
	return d, ok
}

// recordDigests recomputes the reference digests for seeds 0..n-1 and
// rewrites digestFile. Each reference is computed twice, on the
// simplest path and on the benchmarked one, and must agree.
func recordDigests(n int) int {
	t := digestTable{}
	dir, err := os.MkdirTemp(ensureDir(workRoot), "record-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	for _, tiny := range []bool{true, false} {
		t[sizeName(tiny)] = map[string]map[string]string{}
		for _, wl := range []string{wSuite, wCold, wRemote} {
			kind := refKind(wl)
			t[sizeName(tiny)][kind] = map[string]string{}
			for seed := int64(0); seed < int64(n); seed++ {
				ref, err := spawn(ctx, childArgs("ref", wl, seed, tiny, "", false))
				if err != nil {
					fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d reference: %v\n", kind, seed, err)
					return 1
				}
				store := ""
				if wl == wCold {
					store = filepath.Join(dir, fmt.Sprintf("%s-%d", sizeName(tiny), seed))
				}
				got, err := spawn(ctx, childArgs("job", wl, seed, tiny, store, false))
				if err != nil {
					fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d job: %v\n", kind, seed, err)
					return 1
				}
				if got.rec.Digest != ref.rec.Digest {
					fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: job digest %s, reference %s\n", kind, seed, got.rec.Digest, ref.rec.Digest)
					return 1
				}
				t[sizeName(tiny)][kind][strconv.FormatInt(seed, 10)] = ref.rec.Digest
				fmt.Fprintf(os.Stderr, "e2ebench: %s %s seed %d %s\n", sizeName(tiny), kind, seed, ref.rec.Digest)
			}
		}
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err == nil {
		err = os.WriteFile(digestFile, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}
