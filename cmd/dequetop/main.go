// Dequetop is a polling terminal dashboard over the Prometheus
// exposition (deque.PrometheusHandler): live per-deque and
// per-scheduler operation rates and latency quantiles, rendered
// top-style in place.
//
//	dequetop -url http://localhost:8080/metrics [-interval 1s] [-once]
//
// Each frame fetches the endpoint, diffs counters against the previous
// frame for rates, and prints one row per registered deque end plus one
// per scheduler latency kind.  Latency columns (p50/p99/p999, from the
// exposition's pre-computed quantile gauges) show "-" for components
// registered without latency enabled — the dashboard degrades to a rate
// monitor.  -once prints a single frame without clearing the screen, for
// scripts and smoke tests.
//
// The endpoint is whatever the observed process mounted: serve.ExpositionMux
// puts it at /metrics (see examples/worksteal -listen and dequeserve).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

var (
	urlFlag      = flag.String("url", "http://localhost:8080/metrics", "Prometheus exposition endpoint to poll")
	intervalFlag = flag.Duration("interval", time.Second, "polling interval")
	onceFlag     = flag.Bool("once", false, "print one frame and exit (no screen clearing)")
)

func main() {
	flag.Parse()
	client := &http.Client{Timeout: 10 * time.Second}

	var prev scrape
	var prevAt time.Time
	for {
		cur, err := fetch(client, *urlFlag)
		now := time.Now()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dequetop: %v\n", err)
			if *onceFlag {
				os.Exit(1)
			}
			time.Sleep(*intervalFlag)
			continue
		}
		var b strings.Builder
		render(&b, cur, prev, now.Sub(prevAt))
		if !*onceFlag {
			fmt.Print("\x1b[H\x1b[2J") // home + clear: redraw in place
		}
		fmt.Print(b.String())
		if *onceFlag {
			return
		}
		prev, prevAt = cur, now
		time.Sleep(*intervalFlag)
	}
}

// sample is one exposition line: `name{label="value",...} value`.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one fetch: every sample line of the exposition.
type scrape []sample

// fetch scrapes the endpoint and parses its sample lines.
func fetch(client *http.Client, url string) (scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parse(string(body)), nil
}

// parse reads the text exposition format, skipping comments and
// anything that does not parse.
func parse(text string) scrape {
	var sc scrape
	for _, line := range strings.Split(text, "\n") {
		if s, ok := parseLine(strings.TrimSpace(line)); ok {
			sc = append(sc, s)
		}
	}
	return sc
}

// parseLine parses one `name{labels} value` line (every sample the
// exporter writes is labelled).
func parseLine(line string) (sample, bool) {
	name, rest, ok := strings.Cut(line, "{")
	if !ok || name == "" || strings.HasPrefix(name, "#") {
		return sample{}, false
	}
	s := sample{name: name, labels: map[string]string{}}
	for !strings.HasPrefix(rest, "}") {
		k, r, ok := strings.Cut(rest, "=")
		q, err := strconv.QuotedPrefix(r)
		if !ok || err != nil {
			return sample{}, false
		}
		s.labels[k], _ = strconv.Unquote(q)
		rest = strings.TrimPrefix(r[len(q):], ",")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest[1:]), 64)
	if err != nil {
		return sample{}, false
	}
	s.value = v
	return s, true
}

// sum adds the samples named name whose labels include every pair in
// kv (alternating label, value), and reports whether any matched.
func (sc scrape) sum(name string, kv ...string) (float64, bool) {
	var total float64
	found := false
next:
	for _, s := range sc {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		total += s.value
		found = true
	}
	return total, found
}

// count is sum as an integer counter value (0 when absent).
func (sc scrape) count(name string, kv ...string) uint64 {
	v, _ := sc.sum(name, kv...)
	return uint64(v)
}

// labelValues returns the sorted distinct values of label on the
// samples named name: the registered deques (from their operation
// counters) or schedulers (from their event counters).
func (sc scrape) labelValues(name, label string) []string {
	set := map[string]bool{}
	for _, s := range sc {
		if v, ok := s.labels[label]; ok && s.name == name {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// opsOf sums one end's completed operations (the four outcome classes).
func opsOf(sc scrape, name, end string) uint64 {
	var n uint64
	for _, c := range []string{"pushes", "pops", "full_hits", "empty_hits"} {
		n += sc.count("dcasdeque_ops_total", "deque", name, "end", end, "counter", c)
	}
	return n
}

// rate renders a per-second delta, or "-" when no previous frame exists.
func rate(cur, prev uint64, elapsed time.Duration) string {
	if elapsed <= 0 || elapsed > 24*time.Hour {
		return "-"
	}
	if cur < prev {
		return "-" // counter reset (component re-registered)
	}
	return fmt.Sprintf("%.0f", float64(cur-prev)/elapsed.Seconds())
}

// dur renders one quantile gauge (seconds) compactly, "-" when the
// histogram is absent or empty.
func dur(sc scrape, present bool, name, q string, kv ...string) string {
	if !present {
		return "-"
	}
	v, _ := sc.sum(name, append(kv, "quantile", q)...)
	return time.Duration(math.Round(v * 1e9)).Round(10 * time.Nanosecond).String()
}

// render draws one frame: a deque table (one row per end) and a
// scheduler table (one row per lifecycle latency kind).
func render(b *strings.Builder, cur, prev scrape, elapsed time.Duration) {
	deques := cur.labelValues("dcasdeque_ops_total", "deque")
	scheds := cur.labelValues("dcasdeque_sched_events_total", "sched")
	fmt.Fprintf(b, "dequetop  %s  deques=%d scheds=%d\n\n",
		time.Now().Format("15:04:05"), len(deques), len(scheds))

	if len(deques) > 0 {
		fmt.Fprintf(b, "%-20s %-6s %10s %10s %10s %10s %10s %10s %10s\n",
			"DEQUE", "END", "OPS", "OPS/S", "RETRIES", "P50", "P99", "P999", "SPIN-P99")
		for _, n := range deques {
			for _, end := range []string{"left", "right"} {
				hasLat := cur.count("dcasdeque_op_latency_seconds_count", "deque", n, "end", end) > 0
				hasSpin := cur.count("dcasdeque_op_spin_latency_seconds_count", "deque", n, "end", end) > 0
				const opQ, spinQ = "dcasdeque_op_latency_quantile_seconds", "dcasdeque_op_spin_latency_quantile_seconds"
				fmt.Fprintf(b, "%-20s %-6s %10d %10s %10d %10s %10s %10s %10s\n",
					n, end,
					opsOf(cur, n, end),
					rate(opsOf(cur, n, end), opsOf(prev, n, end), elapsed),
					cur.count("dcasdeque_ops_total", "deque", n, "end", end, "counter", "retries"),
					dur(cur, hasLat, opQ, "0.5", "deque", n, "end", end),
					dur(cur, hasLat, opQ, "0.99", "deque", n, "end", end),
					dur(cur, hasLat, opQ, "0.999", "deque", n, "end", end),
					dur(cur, hasSpin, spinQ, "0.99", "deque", n, "end", end))
			}
		}
		b.WriteByte('\n')
	}

	if len(scheds) > 0 {
		fmt.Fprintf(b, "%-20s %10s %10s %10s %10s %10s\n",
			"SCHED", "RUNS", "RUNS/S", "STEALS", "PARKS", "WAKES")
		for _, n := range scheds {
			// Totals are sums over the per-worker series.
			ev := func(sc scrape, e string) uint64 {
				return sc.count("dcasdeque_sched_events_total", "sched", n, "event", e)
			}
			fmt.Fprintf(b, "%-20s %10d %10s %10d %10d %10d\n",
				n, ev(cur, "runs"), rate(ev(cur, "runs"), ev(prev, "runs"), elapsed),
				ev(cur, "steals"), ev(cur, "parks"), ev(cur, "wakes"))
			for _, kind := range []string{"submit_run", "steal_run", "park_wake"} {
				cnt, tracked := cur.sum("dcasdeque_sched_latency_seconds_count", "sched", n, "kind", kind)
				if !tracked {
					continue
				}
				has := cnt > 0
				const q = "dcasdeque_sched_latency_quantile_seconds"
				fmt.Fprintf(b, "  %-18s %10d %10s %10s %10s %10s\n",
					kind, uint64(cnt), "",
					dur(cur, has, q, "0.5", "sched", n, "kind", kind),
					dur(cur, has, q, "0.99", "sched", n, "kind", kind),
					dur(cur, has, q, "0.999", "sched", n, "kind", kind))
			}
		}
	}
	if len(deques) == 0 && len(scheds) == 0 {
		b.WriteString("no registered deques or schedulers at this endpoint\n")
	}
}
