package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// metricsPage is one parse of a server's Prometheus text page: every
// sample keyed by its full series string, `name{labels}`.
type metricsPage struct {
	samples map[string]float64
}

func parseMetrics(r io.Reader) (*metricsPage, error) {
	p := &metricsPage{samples: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p.samples[line[:i]] = v
	}
	return p, sc.Err()
}

// sum adds every series of the metric, whatever its labels.
func (p *metricsPage) sum(name string) float64 {
	var s float64
	for series, v := range p.samples {
		if series == name || strings.HasPrefix(series, name+"{") {
			s += v
		}
	}
	return s
}

// byRoute extracts a route-labeled counter into route → value.
func (p *metricsPage) byRoute(name string) map[string]float64 {
	out := map[string]float64{}
	prefix := name + `{route="`
	for series, v := range p.samples {
		if rest, ok := strings.CutPrefix(series, prefix); ok {
			if route, ok := strings.CutSuffix(rest, `"}`); ok {
				out[route] = v
			}
		}
	}
	return out
}

// delta sums a metric's growth between two sets of pages (one per server).
func delta(before, after []*metricsPage, name string) float64 {
	var d float64
	for i := range after {
		d += after[i].sum(name) - before[i].sum(name)
	}
	return d
}
