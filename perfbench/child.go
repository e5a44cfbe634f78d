package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/embodiedai/create/internal/dispatch"
)

// runChild runs one of the child roles the parent process spawns.
func runChild(role, workload, dir string, seed int64, profile string) error {
	switch role {
	case "sweep-op":
		return sweepOp(dir, seed, profile)
	case "fixture":
		l, err := dispatch.OpenLocal("", dir)
		if err != nil {
			return err
		}
		ops, _ := renderOps(context.Background(), "fixture", l, warmExps, l.Options(unitTrials, seed, 2))
		return jsonLine(childResult{Ops: ops})
	case "setup":
		return setupOnce(workload, dir)
	}
	return fmt.Errorf("unknown child role %q", role)
}

// setupOnce performs a workload's set-up in a fresh process (store and
// Env open, server and worker boot), prints "ready" once the first op
// could be issued, and tears down. The parent times start to ready.
func setupOnce(workload, dir string) error {
	ctx := context.Background()
	sev := newSeverityMeter()
	switch workload {
	case "sweep", "characterize":
		l, err := dispatch.OpenLocal("", dir)
		if err != nil {
			return err
		}
		sev.wrap(l.Env)
		fmt.Println("ready")
	case "serve":
		d, err := bootDaemon(ctx, workload, dir, serveClients, sev)
		if err != nil {
			return err
		}
		fmt.Println("ready")
		d.close()
	case "fleet":
		workers, err := bootFleet(ctx, dir, sev)
		if err != nil {
			return err
		}
		coordDir := filepath.Join(dir, fmt.Sprintf("coord-setup-%d", os.Getpid()))
		l, err := dispatch.OpenLocal("", coordDir)
		if err == nil {
			sev.wrap(l.Env)
			fmt.Println("ready")
		}
		for _, w := range workers {
			w.close()
		}
		if rmErr := os.RemoveAll(coordDir); err == nil {
			err = rmErr
		}
		return err
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	return nil
}
