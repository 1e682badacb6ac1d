// Command vatsload drives a running vatsd with an open-loop Poisson
// arrival stream over -conns connections, timing each request from its
// due time (harness.RunLoad) — the load shape that exposes queueing
// delay (closed-loop clients self-throttle and hide it). It can
// additionally hold hundreds of thousands of idle logical sessions open
// to exercise sessions-at-scale, and prints per-class latency
// histograms.
//
// Usage:
//
//	vatsload -addr 127.0.0.1:4750 -rate 2000 -duration 5s -setup
//	vatsload -addr 127.0.0.1:4750 -rate 500 -sessions 100000 -json
//
// Exit status is nonzero if the run saw any protocol errors, so CI
// smoke jobs can assert a clean wire.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vats/internal/harness"
)

func main() {
	var (
		network   = flag.String("network", "tcp", `server network ("tcp" or "unix")`)
		addr      = flag.String("addr", "127.0.0.1:4750", "server address")
		conns     = flag.Int("conns", 4, "connections (at most this many requests in flight)")
		rate      = flag.Float64("rate", 1000, "target arrival rate, requests/second")
		duration  = flag.Duration("duration", 2*time.Second, "how long to generate arrivals")
		warmup    = flag.Duration("warmup", 0, "exclude arrivals due before this offset from latency stats")
		sessions  = flag.Int("sessions", 0, "idle logical sessions to hold open for the whole run")
		writeFrac = flag.Float64("write-frac", 0, "fraction of requests that are updates")
		classMix  = flag.String("class-mix", "", `high,normal,low weights (e.g. "0.2,0.4,0.4"; empty = all normal)`)
		table     = flag.String("table", "load", "working-set table name")
		keys      = flag.Uint64("keys", 1024, "working-set key count")
		setup     = flag.Bool("setup", false, "create and seed the table before the run")
		seed      = flag.Int64("seed", 1, "arrival/key RNG seed")
		asJSON    = flag.Bool("json", false, "emit the full result as JSON")
	)
	flag.Parse()

	cfg := harness.LoadConfig{
		Network:      *network,
		Addr:         *addr,
		Conns:        *conns,
		Rate:         *rate,
		Duration:     *duration,
		Warmup:       *warmup,
		IdleSessions: *sessions,
		WriteFrac:    *writeFrac,
		Table:        *table,
		Keys:         *keys,
		Setup:        *setup,
		Seed:         *seed,
	}
	if *classMix != "" {
		mix, err := parseMix(*classMix)
		if err != nil {
			fatalf("bad -class-mix: %v", err)
		}
		cfg.ClassMix = mix
	}

	res, err := harness.RunLoad(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("encode: %v", err)
		}
	} else {
		fmt.Printf("sent=%d ok=%d not-found=%d shed=%d retry=%d errors=%d proto-errors=%d elapsed=%v\n",
			res.Sent, res.OK, res.NotFound, res.Shed, res.Retry, res.Errors, res.ProtoErrors,
			res.Elapsed.Round(time.Millisecond))
		fmt.Printf("by class: sent=%v shed=%v idle-sessions=%d\n",
			res.SentByClass, res.ShedByClass, res.IdleOpen)
		fmt.Printf("admitted latency ms: p50=%.2f p95=%.2f p99=%.2f max=%.2f (n=%d)\n",
			res.Latency.P50, res.Latency.P95, res.Latency.P99, res.Latency.Max, res.Latency.N)
		if res.Shed > 0 {
			fmt.Printf("shed latency ms:     p50=%.2f p95=%.2f p99=%.2f max=%.2f (n=%d)\n",
				res.ShedLatency.P50, res.ShedLatency.P95, res.ShedLatency.P99,
				res.ShedLatency.Max, res.ShedLatency.N)
		}
	}

	if res.ProtoErrors != 0 {
		fatalf("%d protocol errors", res.ProtoErrors)
	}
}

func parseMix(s string) ([3]float64, error) {
	var mix [3]float64
	parts := strings.Split(s, ",")
	if len(parts) != len(mix) {
		return mix, fmt.Errorf("want 3 comma-separated weights, got %d", len(parts))
	}
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || w < 0 {
			return mix, fmt.Errorf("weight %q", p)
		}
		mix[i] = w
	}
	return mix, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vatsload: "+format+"\n", args...)
	os.Exit(1)
}
