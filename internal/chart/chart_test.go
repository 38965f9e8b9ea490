package chart

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sample(t Type) *Data {
	return &Data{
		Type:    t,
		Title:   "sample",
		XName:   "carrier",
		YName:   "passengers",
		XLabels: []string{"UA", "AA", "MQ", "OO"},
		Y:       []float64{193, 204, 96, 112},
	}
}

func TestParseType(t *testing.T) {
	for _, typ := range AllTypes {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("ParseType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	if _, err := ParseType("histogram"); err == nil {
		t.Error("want error for unknown type")
	}
}

func TestValidate(t *testing.T) {
	d := sample(Bar)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	empty := &Data{Type: Bar}
	if err := empty.Validate(); err == nil {
		t.Error("empty chart should be invalid")
	}
	badLen := sample(Bar)
	badLen.XLabels = badLen.XLabels[:2]
	if err := badLen.Validate(); err == nil {
		t.Error("mismatched lengths should be invalid")
	}
	negPie := sample(Pie)
	negPie.Y[1] = -5
	if err := negPie.Validate(); err == nil {
		t.Error("negative pie slice should be invalid")
	}
	nanY := sample(Line)
	nanY.Y[0] = math.NaN()
	if err := nanY.Validate(); err == nil {
		t.Error("NaN y should be invalid")
	}
	noX := &Data{Type: Bar, Y: []float64{1}}
	if err := noX.Validate(); err == nil {
		t.Error("missing x axis should be invalid")
	}
}

func TestXLabelFallbacks(t *testing.T) {
	d := &Data{Type: Scatter, XNums: []float64{1.5, 2}, Y: []float64{3, 4}}
	if d.XLabel(0) != "1.5" {
		t.Errorf("label = %q", d.XLabel(0))
	}
	d2 := &Data{Type: Bar, Y: []float64{1}}
	if d2.XLabel(0) != "#0" {
		t.Errorf("label = %q", d2.XLabel(0))
	}
}

func TestRenderBar(t *testing.T) {
	out := RenderASCII(sample(Bar), RenderOptions{})
	if !strings.Contains(out, "UA") || !strings.Contains(out, "█") {
		t.Errorf("bar render missing content:\n%s", out)
	}
}

func TestRenderPiePercentagesSumTo100(t *testing.T) {
	out := RenderASCII(sample(Pie), RenderOptions{})
	if !strings.Contains(out, "%") {
		t.Errorf("pie render missing percentages:\n%s", out)
	}
}

func TestRenderLineAndScatter(t *testing.T) {
	d := &Data{
		Type:  Line,
		XName: "hour", YName: "delay",
		XNums: []float64{0, 1, 2, 3, 4, 5},
		Y:     []float64{1, 4, 2, 8, 5, 7},
	}
	out := RenderASCII(d, RenderOptions{Width: 30, Height: 8})
	if !strings.Contains(out, "●") {
		t.Errorf("line render missing points:\n%s", out)
	}
	d.Type = Scatter
	out = RenderASCII(d, RenderOptions{Width: 30, Height: 8})
	if !strings.Contains(out, "•") {
		t.Errorf("scatter render missing points:\n%s", out)
	}
}

func TestRenderInvalidChart(t *testing.T) {
	d := &Data{Type: Bar}
	out := RenderASCII(d, RenderOptions{})
	if !strings.Contains(out, "invalid chart") {
		t.Errorf("expected invalid marker:\n%s", out)
	}
}

func TestRenderCapsItems(t *testing.T) {
	d := &Data{Type: Bar, XName: "x", YName: "y"}
	for i := 0; i < 100; i++ {
		d.XLabels = append(d.XLabels, "c")
		d.Y = append(d.Y, float64(i))
	}
	out := RenderASCII(d, RenderOptions{MaxItems: 10})
	if !strings.Contains(out, "… 90 more") {
		t.Errorf("expected overflow marker:\n%s", out)
	}
}

func TestVegaLiteBar(t *testing.T) {
	b, err := VegaLite(sample(Bar))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec["mark"] != "bar" {
		t.Errorf("mark = %v", spec["mark"])
	}
	enc := spec["encoding"].(map[string]any)
	if enc["x"].(map[string]any)["type"] != "nominal" {
		t.Error("categorical x should be nominal")
	}
}

func TestVegaLitePieUsesArc(t *testing.T) {
	b, err := VegaLite(sample(Pie))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	mark := spec["mark"].(map[string]any)
	if mark["type"] != "arc" {
		t.Errorf("mark = %v", mark)
	}
}

func TestVegaLiteQuantitativeX(t *testing.T) {
	d := &Data{Type: Scatter, XName: "a", YName: "b", XNums: []float64{1, 2}, Y: []float64{3, 4}}
	b, err := VegaLite(d)
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	enc := spec["encoding"].(map[string]any)
	if enc["x"].(map[string]any)["type"] != "quantitative" {
		t.Error("numeric x should be quantitative")
	}
}

func TestVegaLiteInvalid(t *testing.T) {
	if _, err := VegaLite(&Data{Type: Bar}); err == nil {
		t.Error("want error for invalid chart")
	}
}

// Property: rendering never panics and always yields a header line, for
// arbitrary finite data.
func TestRenderQuick(t *testing.T) {
	f := func(ys []float64, which uint8) bool {
		clean := make([]float64, 0, len(ys))
		labels := make([]string, 0, len(ys))
		for i, v := range ys {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			clean = append(clean, math.Abs(v))
			labels = append(labels, string(rune('a'+i%26)))
		}
		if len(clean) == 0 {
			return true
		}
		d := &Data{Type: AllTypes[int(which)%len(AllTypes)], XName: "x", YName: "y", XLabels: labels, Y: clean}
		out := RenderASCII(d, RenderOptions{Width: 20, Height: 6, MaxItems: 10})
		return strings.Contains(out, "[")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVegaLiteSizeBoundHoldsOnHardInputs: the bound covers the longest
// number encodings and every escaped byte class — quotes, backslashes,
// HTML-escaped characters, control bytes, invalid UTF-8, U+2028 — for
// every chart type and both x-axis kinds.
func TestVegaLiteSizeBoundHoldsOnHardInputs(t *testing.T) {
	nasty := []string{`"q"`, `back\slash`, "<b>&amp;</b>", "tab\tnew\nline\x01", "bad\xff\xfeutf8", "sep\u2028\u2029", "naïve 日本", ""}
	nums := []float64{-0.000001234567890123456, -1.2345678901234567e-300, -1.2345678901234567e20, 1e21, -9.87654321e-7, 0, 3}
	for _, typ := range AllTypes {
		for _, quant := range []bool{false, true} {
			d := &Data{Type: typ, Title: nasty[2] + nasty[4], XName: nasty[0], YName: nasty[5]}
			for i := 0; i < 40; i++ {
				d.XLabels = append(d.XLabels, nasty[i%len(nasty)])
				d.Y = append(d.Y, math.Abs(nums[i%len(nums)]))
				if quant {
					d.XNums = append(d.XNums, nums[(i+3)%len(nums)])
				}
			}
			spec, err := VegaLite(d)
			if err != nil {
				t.Fatalf("%v: %v", typ, err)
			}
			if bound := VegaLiteSizeBound(d); bound < int64(len(spec)) {
				t.Errorf("%v quant=%v: bound %d < rendered %d bytes", typ, quant, bound, len(spec))
			}
		}
	}
}
