package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (text format version 0.0.4) for a metrics
// Snapshot. The encoder is independent of any HTTP server, so flayd's
// /metrics endpoint and the front's merged fleet view share it:
// counters render as counter families, gauges as gauge families, and
// the bounded log-linear histograms as summary families with
// p50/p95/p99 quantile lines plus the exact _sum and _count series.
//
// goflay instrument names use dots as separators ("core.update_ns");
// Prometheus metric names may only contain [a-zA-Z0-9_:], so every
// invalid rune is rewritten to '_' and an optional namespace prefix is
// prepended ("flay" -> "flay_core_update_ns"). Output is sorted by
// family name, so the same snapshot always renders byte-identically.

// PromName sanitizes an instrument name into a legal Prometheus metric
// name, prepending the namespace when non-empty.
func PromName(namespace, name string) string {
	var b strings.Builder
	if namespace != "" {
		b.WriteString(namespace)
		b.WriteByte('_')
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 && namespace == "" {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm renders the snapshot in Prometheus text format. A summary
// family's quantile lines are emitted only when the histogram has
// samples (an observation-free summary carries just _sum and _count,
// both zero).
func (s Snapshot) WriteProm(w io.Writer, namespace string) error {
	type family struct {
		name  string
		lines []string
	}
	families := make([]family, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))

	for name, v := range s.Counters {
		pn := PromName(namespace, name)
		families = append(families, family{pn, []string{
			fmt.Sprintf("# TYPE %s counter", pn),
			fmt.Sprintf("%s %d", pn, v),
		}})
	}
	for name, v := range s.Gauges {
		pn := PromName(namespace, name)
		families = append(families, family{pn, []string{
			fmt.Sprintf("# TYPE %s gauge", pn),
			fmt.Sprintf("%s %d", pn, v),
		}})
	}
	for name, h := range s.Histograms {
		pn := PromName(namespace, name)
		lines := []string{fmt.Sprintf("# TYPE %s summary", pn)}
		if h.Count > 0 {
			lines = append(lines,
				fmt.Sprintf(`%s{quantile="0.5"} %d`, pn, h.P50),
				fmt.Sprintf(`%s{quantile="0.95"} %d`, pn, h.P95),
				fmt.Sprintf(`%s{quantile="0.99"} %d`, pn, h.P99),
			)
		}
		lines = append(lines,
			fmt.Sprintf("%s_sum %d", pn, h.Sum),
			fmt.Sprintf("%s_count %d", pn, h.Count),
		)
		families = append(families, family{pn, lines})
	}

	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })
	for _, f := range families {
		for _, line := range f.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
