package chart

import (
	"encoding/json"
	"fmt"
)

// VegaLite converts the chart to a Vega-Lite v5 specification. The export
// is intentionally minimal: enough to open the chart in the Vega editor or
// embed it with vega-embed.
func VegaLite(d *Data) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	values := make([]map[string]any, d.Len())
	quantX := len(d.XNums) == d.Len()
	for i := range values {
		row := map[string]any{"y": d.Y[i]}
		if quantX {
			row["x"] = d.XNums[i]
		} else {
			row["x"] = d.XLabel(i)
		}
		if d.Type == Pie {
			row["category"] = d.XLabel(i)
		}
		values[i] = row
	}
	xName, yName := d.XName, d.YName
	if xName == "" {
		xName = "x"
	}
	if yName == "" {
		yName = "y"
	}
	spec := map[string]any{
		"$schema":     "https://vega.github.io/schema/vega-lite/v5.json",
		"description": d.Title,
		"data":        map[string]any{"values": values},
	}
	xType := "nominal"
	if quantX {
		xType = "quantitative"
	}
	switch d.Type {
	case Bar:
		spec["mark"] = "bar"
		spec["encoding"] = map[string]any{
			"x": map[string]any{"field": "x", "type": xType, "title": xName},
			"y": map[string]any{"field": "y", "type": "quantitative", "title": yName},
		}
	case Line:
		spec["mark"] = "line"
		spec["encoding"] = map[string]any{
			"x": map[string]any{"field": "x", "type": xType, "title": xName},
			"y": map[string]any{"field": "y", "type": "quantitative", "title": yName},
		}
	case Scatter:
		spec["mark"] = "point"
		spec["encoding"] = map[string]any{
			"x": map[string]any{"field": "x", "type": xType, "title": xName},
			"y": map[string]any{"field": "y", "type": "quantitative", "title": yName},
		}
	case Pie:
		spec["mark"] = map[string]any{"type": "arc"}
		spec["encoding"] = map[string]any{
			"theta": map[string]any{"field": "y", "type": "quantitative", "title": yName},
			"color": map[string]any{"field": "category", "type": "nominal", "title": xName},
		}
	default:
		return nil, fmt.Errorf("chart: cannot export type %v", d.Type)
	}
	return json.MarshalIndent(spec, "", "  ")
}

// Byte budgets behind VegaLiteSizeBound. vegaFixedBound covers the
// indented spec around the data values (schema URL, encoding, mark) with
// empty title and axis names; vegaPointBound covers one indented value
// object's keys, quotes and separators, the pie's category entry
// included; maxJSONNumber is the longest float64 that encoding/json or
// %g emits ("-0.000001234567890123456": a sign, then 'f' format at the
// 1e-6 cut-over).
const (
	vegaFixedBound = 640
	vegaPointBound = 72
	maxJSONNumber  = 25
)

// VegaLiteSizeBound returns an upper bound on len(VegaLite(d)) without
// rendering, so a cache can charge for a spec before it is memoized.
func VegaLiteSizeBound(d *Data) int64 {
	n := vegaFixedBound + jsonStringBound(d.Title) + jsonStringBound(d.XName) + jsonStringBound(d.YName)
	quantX := len(d.XNums) == d.Len()
	for i := 0; i < d.Len(); i++ {
		n += vegaPointBound + maxJSONNumber // the value object and its y
		if quantX {
			n += maxJSONNumber
		} else {
			n += labelBound(d, i)
		}
		if d.Type == Pie {
			n += labelBound(d, i)
		}
	}
	return int64(n)
}

// labelBound bounds the quoted JSON encoding of d.XLabel(i).
func labelBound(d *Data, i int) int {
	if i < len(d.XLabels) && d.XLabels[i] != "" {
		return jsonStringBound(d.XLabels[i])
	}
	return 2 + maxJSONNumber // %g of a float64, or "#<index>"
}

// jsonStringBound bounds the quoted JSON encoding of s. A quote or a
// backslash takes two bytes, other printable ASCII one, except the
// HTML-escaped <, > and &; any other byte takes at most six (a \u
// escape, or \ufffd for an invalid UTF-8 byte).
func jsonStringBound(s string) int {
	n := 2
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			n += 2
		case c >= 0x20 && c < 0x7f && c != '<' && c != '>' && c != '&':
			n++
		default:
			n += 6
		}
	}
	return n
}
