package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"vats/internal/stats"
	"vats/internal/tprofiler"
)

// Handler returns the observability mux for o:
//
//	/metrics          — Prometheus text exposition of every registry
//	                    series, the variance engine's attribution
//	                    gauges, and the sampling controller's state
//	/healthz          — liveness probe; 200 "ok" while serving
//	/debug/txns       — JSON dump of the slow-transaction ring (slowest
//	                    first), each capture with its span timeline
//	                    and factor totals; ?factors=k additionally
//	                    ranks the ring's factors with TProfiler's
//	                    scoring and returns the top k
//	/debug/stats      — JSON map of live stats.Summary per histogram
//	/debug/variance   — JSON variance-attribution snapshot over the
//	                    live horizon; ?factors=k appends the top-k
//	                    TProfiler-ranked factors; always includes the
//	                    sampling controller state
//	/debug/anomalies  — JSON SLO-watchdog anomaly ring, newest first;
//	                    ?n= bounds the count
func Handler(o *Obs) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if o == nil {
			return
		}
		o.Registry.WritePrometheus(w)
		o.Variance.WritePrometheus(w)
		writeSamplerProm(w, o.Sampler, o.Watchdog)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/txns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, txnsPayload(o, factorsParam(r)))
	})
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, _ *http.Request) {
		var payload map[string]stats.Summary
		if o != nil {
			payload = o.Registry.Summaries()
		}
		writeJSON(w, payload)
	})
	mux.HandleFunc("/debug/variance", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, variancePayload(o, factorsParam(r)))
	})
	mux.HandleFunc("/debug/anomalies", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			if k, err := strconv.Atoi(v); err == nil && k > 0 {
				n = k
			}
		}
		writeJSON(w, anomaliesPayload(o, n))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "vats observability\n\n/metrics\n/healthz\n/debug/txns\n/debug/stats\n/debug/variance\n/debug/anomalies\n")
	})
	return mux
}

// factorsParam parses ?factors=k (present-but-invalid falls back to
// defaultTopFactors, absent means 0 = no factor ranking).
func factorsParam(r *http.Request) int {
	v := r.URL.Query().Get("factors")
	if v == "" {
		return 0
	}
	if n, err := strconv.Atoi(v); err == nil && n > 0 {
		return n
	}
	return defaultTopFactors
}

// writeSamplerProm renders the sampling controller and watchdog gauges
// Prometheus-side; they live outside the registry because their values
// are derived, not accumulated.
func writeSamplerProm(w io.Writer, s *Sampler, wd *Watchdog) {
	st := s.State()
	fmt.Fprintf(w, "# TYPE txn_trace_sampling_modulus gauge\ntxn_trace_sampling_modulus %d\n", st.Modulus)
	fmt.Fprintf(w, "# TYPE txn_trace_sampling_rate_txn_s gauge\ntxn_trace_sampling_rate_txn_s %g\n", st.RateTxnS)
	fmt.Fprintf(w, "# TYPE txn_trace_overhead_budget_frac gauge\ntxn_trace_overhead_budget_frac %g\n", st.BudgetFrac)
	fmt.Fprintf(w, "# TYPE txn_trace_overhead_est_frac gauge\ntxn_trace_overhead_est_frac %g\n", st.EstimatedFrac)
	fmt.Fprintf(w, "# TYPE slo_anomalies_total counter\nslo_anomalies_total %d\n", wd.Total())
}

// jsonEvent is the wire form of one timeline span.
type jsonEvent struct {
	Name  string  `json:"name"`
	AtMs  float64 `json:"at_ms"`
	DurMs float64 `json:"dur_ms"`
}

// jsonTrace is the wire form of one retained transaction capture.
type jsonTrace struct {
	ID        uint64             `json:"id"`
	Tag       string             `json:"tag,omitempty"`
	Begin     time.Time          `json:"begin"`
	LatencyMs float64            `json:"latency_ms"`
	Aborted   bool               `json:"aborted"`
	Dropped   int                `json:"dropped_events,omitempty"`
	Events    []jsonEvent        `json:"events"`
	Spans     map[string]float64 `json:"spans_ms"`
}

type txnsResponse struct {
	Count   int                `json:"count"`
	Traces  []jsonTrace        `json:"traces"`
	Factors []tprofiler.Factor `json:"factors,omitempty"`
}

// defaultTopFactors is how many ranked factors /debug/txns returns
// when ?factors is present but not a positive integer.
const defaultTopFactors = 10

func txnsPayload(o *Obs, topK int) txnsResponse {
	resp := txnsResponse{Traces: []jsonTrace{}}
	if o == nil {
		return resp
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	slow := o.Tracer.Slow()
	for _, tc := range slow {
		marks := tc.Timeline()
		jt := jsonTrace{
			ID:        tc.ID,
			Tag:       tc.Tag,
			Begin:     tc.Begin,
			LatencyMs: ms(tc.Latency),
			Aborted:   tc.Aborted,
			Dropped:   tc.SpanCount() - len(marks),
			Events:    make([]jsonEvent, len(marks)),
			Spans:     factorMap(tc),
		}
		for i, m := range marks {
			jt.Events[i] = jsonEvent{Name: m.Path, AtMs: ms(m.At), DurMs: ms(m.Dur)}
		}
		resp.Traces = append(resp.Traces, jt)
	}
	resp.Count = len(resp.Traces)
	if topK > 0 && resp.Count > 0 {
		// Rank the ring's factor totals with the profiler's scoring, as
		// one decomposition over the retained captures.
		d := tprofiler.NewDecomp(0)
		for _, tc := range slow {
			var buf [numFactors]tprofiler.Span
			d.Add(ms(tc.Latency), factorSpans(tc, buf[:0]))
		}
		resp.Factors = tprofiler.RankFactors(d, nil, topK)
	}
	return resp
}

// varianceResponse is the /debug/variance payload: the merged
// attribution snapshot plus controller state and, when requested, the
// TProfiler-ranked factor list.
type varianceResponse struct {
	*VarianceSnapshot
	Sampler SamplerState       `json:"sampler"`
	Ranked  []tprofiler.Factor `json:"ranked_factors,omitempty"`
}

func variancePayload(o *Obs, topK int) varianceResponse {
	if o == nil {
		return varianceResponse{VarianceSnapshot: &VarianceSnapshot{Factors: []FactorStat{}}, Sampler: SamplerState{BudgetFrac: -1, Modulus: 1}}
	}
	resp := varianceResponse{
		VarianceSnapshot: o.Variance.Snapshot(),
		Sampler:          o.Sampler.State(),
	}
	if topK > 0 {
		resp.Ranked = resp.VarianceSnapshot.TopFactors(topK)
	}
	return resp
}

type anomaliesResponse struct {
	Total     int64     `json:"total"`
	Retained  int       `json:"retained"`
	SLO       SLOConfig `json:"slo"`
	Anomalies []Anomaly `json:"anomalies"`
}

func anomaliesPayload(o *Obs, n int) anomaliesResponse {
	resp := anomaliesResponse{Anomalies: []Anomaly{}}
	if o == nil {
		return resp
	}
	resp.Total = o.Watchdog.Total()
	resp.SLO = o.Watchdog.SLO()
	all := o.Watchdog.Anomalies(0)
	resp.Retained = len(all)
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	resp.Anomalies = append(resp.Anomalies, all...)
	return resp
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running observability endpoint.
type Server struct {
	srv  *http.Server
	ln   net.Listener
	addr string
}

// Serve starts the observability endpoint on addr (e.g. ":9090" or
// "127.0.0.1:0") serving o, enabling o's collection as a side effect —
// serving metrics nobody collects would render an empty page. It
// returns once the listener is bound.
func Serve(addr string, o *Obs) (*Server, error) {
	o.SetEnabled(true)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		srv:  &http.Server{Handler: Handler(o)},
		ln:   ln,
		addr: ln.Addr().String(),
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Serve starts the observability endpoint for this bundle; see the
// package-level Serve.
func (o *Obs) Serve(addr string) (*Server, error) { return Serve(addr, o) }

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.addr }

// URL returns the base URL of the endpoint.
func (s *Server) URL() string { return "http://" + s.addr }

// Close stops the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
