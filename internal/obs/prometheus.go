package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// quantiles exposed for every histogram family.
var expoQuantiles = []struct {
	q     float64
	label string
}{
	{0.5, "0.5"},
	{0.9, "0.9"},
	{0.99, "0.99"},
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Families and series are emitted in
// sorted order so the output is deterministic for a given state — the
// golden test depends on that. Histograms are exposed as summaries: one
// series per quantile plus _sum and _count; latency histograms record
// nanoseconds internally and are exposed in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			bw.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n")
		}
		bw.WriteString("# TYPE " + f.name + " " + f.kind + "\n")
		for _, s := range f.series {
			switch {
			case s.c != nil:
				bw.WriteString(f.name + renderLabels(s.labels, "") + " " +
					strconv.FormatUint(s.c.Value(), 10) + "\n")
			case s.gf != nil:
				bw.WriteString(f.name + renderLabels(s.labels, "") + " " +
					formatFloat(s.gf()) + "\n")
			case s.g != nil:
				bw.WriteString(f.name + renderLabels(s.labels, "") + " " +
					strconv.FormatInt(s.g.Value(), 10) + "\n")
			case s.h != nil:
				snap := s.h.Snapshot()
				scale := 1.0
				if f.seconds {
					scale = 1e-9
				}
				for _, eq := range expoQuantiles {
					bw.WriteString(f.name + renderLabels(s.labels, eq.label) + " " +
						formatFloat(float64(snap.Quantile(eq.q))*scale) + "\n")
				}
				bw.WriteString(f.name + "_sum" + renderLabels(s.labels, "") + " " +
					formatFloat(float64(snap.Sum)*scale) + "\n")
				bw.WriteString(f.name + "_count" + renderLabels(s.labels, "") + " " +
					strconv.FormatUint(snap.Count, 10) + "\n")
			}
		}
	}
	return bw.Flush()
}

// renderLabels renders a label set (plus an optional quantile label) as
// {k="v",...}, or the empty string when there are no labels at all.
func renderLabels(labels []Label, quantile string) string {
	if len(labels) == 0 && quantile == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if quantile != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`quantile="` + quantile + `"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float compactly (integers without a trailing .0 is
// fine for Prometheus; %g keeps precision without noise).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
