package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// table renders aligned text tables, the harness's output format: one
// row per data point of the figure being reproduced.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table {
	return &table{header: header}
}

func (t *table) row(cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			out[i] = v
		case time.Duration:
			out[i] = fmtDur(v)
		case float64:
			out[i] = fmt.Sprintf("%.2f", v)
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, out)
}

func (t *table) write(w io.Writer, title string) {
	if title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", title)
	}
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// fmtDur renders durations at the precision the figures need.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// fmtBytes renders byte sizes as the figures label them.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// pct renders a/b as a percentage string.
func pct(a, b time.Duration) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b))
}

// reduction renders how much smaller `new` is than `old`.
func reduction(old, new float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*(old-new)/old)
}

// emit writes BENCH_<id>.json into Options.ArtifactDir: the rows of
// experiment ablation-<id> under a provenance record naming the host,
// the code and the inputs that produced them. The host and code keys
// are the ones perfbench prints; a commit built from a modified tree
// carries a "-dirty" suffix.
func (e *Env) emit(id string, rows any) error {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	out, err := json.MarshalIndent(map[string]any{
		"provenance": map[string]any{
			"experiment": "ablation-" + id,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"commit":     commit + dirty,
			"seed":       e.Opts.Seed,
			"blocks":     e.Opts.Blocks,
			"txscale":    e.Opts.TxScale,
			"quick":      e.Opts.Quick,
		},
		"rows": rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.Opts.ArtifactDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.Opts.ArtifactDir, "BENCH_"+id+".json"), append(out, '\n'), 0o644)
}
