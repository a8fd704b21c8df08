package iamdb

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"runtime/pprof"
)

// DebugHandler returns the introspection handler.  The DB serves
// nothing itself: the caller mounts the handler on a server of its own
// (cmd/iamdb debug does; tests use httptest).  s is the sampler
// /timeline reads (from NewSampler; nil serves an empty timeline).
//
//	/metrics   — Metrics report (text; ?format=json for the struct)
//	/timeline  — s's windowed time-series points (JSON array)
//	/traces    — recorded spans (JSON Lines; ?format=chrome for a
//	             chrome://tracing / Perfetto trace-event file)
//	/levels    — per-level tree view (text)
//	/scrub     — POST runs a Scrub pass and answers with its report
//	/debug/pprof/* — standard pprof handlers, with iamdb goroutine
//	             labels on background workers and scrub passes
func (db *DB) DebugHandler(s *Sampler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", db.handleDebugIndex)
	mux.HandleFunc("/metrics", db.handleDebugMetrics)
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		s.Poll()
		pts := s.Points()
		if pts == nil {
			pts = []TimelinePoint{}
		}
		writeDebugJSON(w, pts)
	})
	mux.HandleFunc("/traces", db.handleDebugTraces)
	mux.HandleFunc("/levels", db.handleDebugLevels)
	mux.HandleFunc("/scrub", db.handleDebugScrub)
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

func (db *DB) handleDebugIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "iamdb debug server (engine %v)\n\n", db.opt.Engine)
	fmt.Fprintln(w, "/metrics        metrics report (?format=json)")
	fmt.Fprintln(w, "/timeline       windowed time-series (JSON)")
	fmt.Fprintln(w, "/traces         spans as JSON Lines (?format=chrome)")
	fmt.Fprintln(w, "/levels         per-level tree view")
	fmt.Fprintln(w, "/scrub          POST: run a scrub pass, answer with its report")
	fmt.Fprintln(w, "/debug/pprof/   pprof index")
}

func (db *DB) handleDebugMetrics(w http.ResponseWriter, r *http.Request) {
	m := db.Metrics()
	if r.URL.Query().Get("format") == "json" {
		writeDebugJSON(w, m)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, m.String())
}

func (db *DB) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if db.tr == nil {
		http.Error(w, "tracing disabled: pass Options.Trace", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = db.tr.WriteChromeTrace(w)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = db.tr.WriteJSONLines(w)
}

func (db *DB) handleDebugLevels(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(db.stores) == 1 {
		// An unsharded database renders as the one tree it is.
		db.writeDebugLevels(w, 0)
		return
	}
	// Aggregate headline, then every shard's own tree.
	m := db.Metrics()
	fmt.Fprintf(w, "engine %v, %d shards\n", db.opt.Engine, len(db.stores))
	fmt.Fprintf(w, "memtable %.1f MB (+%d immutable)  space used %.1f MB, write amplification %.2f\n",
		mb(m.MemtableBytes), m.ImmutableMemtables, mb(m.SpaceUsed), m.WriteAmplification())
	for i := range db.stores {
		lo, hi := db.ShardRange(i)
		fmt.Fprintf(w, "\n-- shard %03d [%s, %s) --\n", i, shardBound(lo, "-inf"), shardBound(hi, "+inf"))
		db.writeDebugLevels(w, i)
	}
}

// shardBound renders a shard range endpoint for operator output.
func shardBound(b []byte, unbounded string) string {
	if b == nil {
		return unbounded
	}
	return fmt.Sprintf("%q", b)
}

// writeDebugLevels renders store i's per-level tree view.
func (db *DB) writeDebugLevels(w io.Writer, i int) {
	m := db.ShardMetrics(i)
	st := db.stores[i]
	fmt.Fprintf(w, "engine %v", db.opt.Engine)
	if mm, k := st.mixedLevel(); mm > 0 {
		fmt.Fprintf(w, "  (mixed level m=%d, k=%d)", mm, k)
	}
	fmt.Fprintf(w, "\nmemtable %.1f MB (+%d immutable)\n",
		mb(m.MemtableBytes), m.ImmutableMemtables)
	for _, li := range m.Levels {
		bar := li.Nodes
		if bar > 64 {
			bar = 64
		}
		fmt.Fprintf(w, "L%-2d %5d nodes %5d seqs %9.1f MB ", li.Level, li.Nodes, li.Seqs, mb(li.Bytes))
		for i := 0; i < bar; i++ {
			fmt.Fprint(w, "#")
		}
		if li.Quarantined > 0 {
			fmt.Fprintf(w, "  [%d quarantined]", li.Quarantined)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "space used %.1f MB, write amplification %.2f\n",
		mb(m.SpaceUsed), m.WriteAmplification())
	if qs := st.set.Quarantined(); len(qs) > 0 {
		fmt.Fprintf(w, "\nquarantined tables (%d):\n", len(qs))
		for _, qi := range qs {
			fmt.Fprintf(w, "  L%-2d %06d %s — %s\n", qi.Level, qi.FileNum, qi.Path, qi.Reason)
		}
	}
}

// handleDebugScrub runs one Scrub pass on the request's goroutine,
// labelled for profiles, and answers with the report's summary, each
// finding and the pass's error.  Any other method is a 405.
func (db *DB) handleDebugScrub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "/scrub runs a pass: use POST", http.StatusMethodNotAllowed)
		return
	}
	var out struct {
		Summary  string
		Findings []string `json:",omitempty"`
		Err      string   `json:",omitempty"`
	}
	pprof.Do(r.Context(), pprof.Labels("iamdb", "scrub"), func(context.Context) {
		rep, err := db.Scrub()
		out.Summary = rep.String()
		for _, c := range rep.Corruptions {
			out.Findings = append(out.Findings, c.Error())
		}
		if err != nil {
			out.Err = err.Error()
		}
	})
	writeDebugJSON(w, out)
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
