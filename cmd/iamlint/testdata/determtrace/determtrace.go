// Package determtrace opts into the determinism scope and records
// structural spans the sanctioned way: through a trace.Recorder driven
// by an injected metrics.Clock.  Span lifecycles, parenting, lineage
// annotations and both exporters must lint clean — the recorder reads
// time only through its clock, so runs replay byte-identically on a
// virtual clock, while the same code stamped with time.Now stays
// rejected (see determbad).
//
//iamlint:deterministic
package determtrace

import (
	"strings"
	"time"

	"iamdb/internal/metrics"
	"iamdb/internal/trace"
)

// record runs a parent/child span pair against a hand-advanced clock —
// the unit-test pattern.
func record() []trace.Span {
	mc := new(metrics.ManualClock)
	r := trace.NewRecorder(8, mc)
	sp := r.Begin("job")
	sp.SetLevel(1)
	sp.AddIn(7)
	mc.Advance(time.Millisecond)
	child := sp.Child("step")
	child.SetBytes(1 << 10)
	mc.Advance(time.Millisecond)
	child.End()
	sp.AddOut(9)
	sp.End()
	return r.Snapshot()
}

// export renders both wire formats; neither touches ambient time.
func export() (string, string) {
	var lines, chrome strings.Builder
	spans := record()
	_ = trace.WriteJSONLines(&lines, spans)
	_ = trace.WriteChromeTrace(&chrome, spans)
	return lines.String(), chrome.String()
}

// disabled exercises the nil-recorder fast path: every method must be
// callable on the zero Ctx without a recorder behind it.
func disabled() bool {
	var r *trace.Recorder
	sp := r.Begin("noop")
	sp.SetLevel(0)
	sp.SetBytes(1)
	sp.SetCount(1)
	sp.AddIn(1)
	sp.AddOut(2)
	sp.End()
	return r.Enabled()
}
