package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/embodiedai/create/internal/dispatch"
	"github.com/embodiedai/create/internal/registry"
)

// Every op renders an (experiment, trials, seed) triple drawn from the
// pools below, and every triple a pool can produce has its SHA-256 pinned
// in digests.json. A run's --seed only chooses and orders pool members, so
// each output is checked against bytes recorded before the change under
// test. Served results and fleet replays are additionally compared with
// the local render of the same triple (docs/DETERMINISM.md's byte-identity
// contract). Rewrite the table (bash perfbench/run.sh --record, from the
// repository root) only when a change is meant to alter printed bytes.

const (
	// sweepTrials sets the sweep's severity-versus-episode split (see
	// layers.json); the other workloads use one trial per grid point.
	sweepTrials = 2
	unitTrials  = 1
)

var (
	sweepExps = []string{"fig16", "fig13"}
	charExps  = []string{"fig5", "fig4", "fig9"}
	warmExps  = []string{"fig6", "fig13", "fig16", "fig17", "fig19", "fig20"}
	coldExp   = "fig15"

	sweepSeeds = seedRange(101, 6)
	charSeeds  = seedRange(201, 4)
	warmSeeds  = seedRange(301, 4)
	coldSeeds  = seedRange(401, 160)
)

func seedRange(first int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}

//go:embed digests.json
var digestsJSON []byte

// digests maps digestKey(experiment, trials, seed) to a hex SHA-256.
type digests map[string]string

func digestKey(exp string, trials int, seed int64) string {
	return exp + "/t" + strconv.Itoa(trials) + "/s" + strconv.FormatInt(seed, 10)
}

func loadDigests() (digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// recordDigests renders every pool triple on a fresh in-memory session
// per seed and writes the table to perfbench/digests.json.
func recordDigests(log io.Writer) error {
	out := digests{}
	pools := []struct {
		exps   []string
		trials int
		seeds  []int64
	}{
		{sweepExps, sweepTrials, sweepSeeds},
		{charExps, unitTrials, charSeeds},
		{warmExps, unitTrials, warmSeeds},
		{[]string{coldExp}, unitTrials, coldSeeds},
	}
	for _, p := range pools {
		for _, seed := range p.seeds {
			l, err := dispatch.OpenLocal("", "")
			if err != nil {
				return err
			}
			for _, exp := range p.exps {
				d, ok := registry.Lookup(exp)
				if !ok {
					return fmt.Errorf("unknown experiment %s", exp)
				}
				var buf bytes.Buffer
				l.Run(&buf, []registry.Descriptor{d}, l.Options(p.trials, seed, 2), false)
				k := digestKey(exp, p.trials, seed)
				out[k] = digestOf(buf.Bytes())
				fmt.Fprintln(log, k, out[k])
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("perfbench/digests.json", append(data, '\n'), 0o644)
}
