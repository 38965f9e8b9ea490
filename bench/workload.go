package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/load"
)

// workload is one traffic mix: its scenario script plus every input the
// seed generates from it. Dataset contents, the op sequence, append rows
// and ephemeral registrations all derive from the seed alone, so the
// same seed replays the same requests and the server only ever sees the
// generated requests.
type workload struct {
	name     string
	sc       *load.Scenario
	seed     int64
	datasets []*dsInput
	byName   map[string]*dsInput
}

// dsInput is one scenario dataset's generated content.
type dsInput struct {
	spec       load.DatasetSpec
	csv        []byte         // registration body
	table      *dataset.Table // csv parsed exactly as the server parses it
	queries    []string       // vizql sources the query op draws from
	questions  []string       // natural-language questions the nlq op draws from
	appendSeed int64          // seeds the append-row stream
}

// Seed salts: each input family draws from its own stream, so adding
// an op to a mix does not reshuffle the dataset contents.
const (
	saltDataset = 1
	saltOps     = 1 << 10
	saltAppend  = 1 << 11
	saltEph     = 1 << 20
)

// subSeed derives an independent stream seed (splitmix64 finalizer).
func subSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// loadWorkload parses dir/<name>.scenario and generates its inputs
// from seed, the only source of randomness.
func loadWorkload(dir, name string, seed int64) (*workload, error) {
	src, err := os.ReadFile(filepath.Join(dir, name+".scenario"))
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	sc, err := load.ParseScenario(bytes.NewReader(src))
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	w := &workload{name: name, sc: sc, seed: seed, byName: map[string]*dsInput{}}
	for i, spec := range sc.Datasets {
		spec.Seed = subSeed(seed, saltDataset+uint64(i))
		csv, tab, err := generateTable(spec.Name, spec.Rows, spec.Cols, spec.Seed)
		if err != nil {
			return nil, fmt.Errorf("workload %s: dataset %s: %w", name, spec.Name, err)
		}
		ds := &dsInput{
			spec: spec, csv: csv, table: tab,
			queries:    queriesFor(spec.Name, spec.Cols),
			questions:  questionsFor(spec.Cols),
			appendSeed: subSeed(seed, saltAppend+uint64(i)),
		}
		w.datasets = append(w.datasets, ds)
		w.byName[spec.Name] = ds
	}
	return w, nil
}

// readOnly reports whether the mix never writes: then every repeated
// read must be answered with the identical body.
func (w *workload) readOnly() bool {
	for _, o := range w.sc.Ops {
		if !isRead(o.Kind) {
			return false
		}
	}
	return true
}

func isRead(k load.OpKind) bool {
	switch k {
	case load.OpTopK, load.OpSearch, load.OpQuery, load.OpNLQ:
		return true
	}
	return false
}

// readKeys lists every distinct read request the mix can issue, in
// scenario order — the set-up priming pass sends each once.
func (w *workload) readKeys() []op {
	var out []op
	seen := map[string]bool{}
	for _, spec := range w.sc.Ops {
		if !isRead(spec.Kind) {
			continue
		}
		for _, q := range w.textsFor(spec) {
			o := op{kind: spec.Kind, ds: spec.Dataset, k: spec.K, q: q}
			if key := o.key(); !seen[key] {
				seen[key] = true
				out = append(out, o)
			}
		}
	}
	return out
}

// textsFor lists the query texts an op spec draws from.
func (w *workload) textsFor(spec load.OpSpec) []string {
	if spec.Q != "" {
		return []string{spec.Q}
	}
	switch spec.Kind {
	case load.OpQuery:
		return w.byName[spec.Dataset].queries
	case load.OpNLQ:
		return w.byName[spec.Dataset].questions
	case load.OpSearch:
		return []string{defaultSearch}
	}
	return []string{""}
}

// defaultSearch is the keyword query a search op without q sends.
const defaultSearch = "region metric1"

// generateTable builds a dataset with planted structure — a skewed
// category, a timestamp, a uniform metric, a metric correlated with it,
// then normal and heavy-tailed metrics — so every chart family has
// something to find. It returns the CSV body and the table parsed from
// it exactly as the server will parse it.
func generateTable(name string, rows, cols int, seed int64) ([]byte, *dataset.Table, error) {
	cs := []datagen.Col{
		{Name: "region", Kind: datagen.KindCategory, K: 6},
		{Name: "when", Kind: datagen.KindTime},
		{Name: "metric1", Kind: datagen.KindUniform, Lo: 0, Hi: 1000},
	}
	for j := 3; j < cols; j++ {
		c := datagen.Col{Name: "metric" + strconv.Itoa(j-1)}
		switch (j - 3) % 3 {
		case 0:
			c.Kind, c.Base, c.Scale, c.Noise = datagen.KindDerived, "metric1", 2, 25
		case 1:
			c.Kind, c.Mu, c.Sigma = datagen.KindNormal, 50, 12
		default:
			c.Kind, c.Lo, c.Hi = datagen.KindHeavyTail, 0, 500
		}
		cs = append(cs, c)
	}
	tab, err := datagen.Generate(datagen.Spec{Name: name, Tuples: rows, Cols: cs, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		return nil, nil, err
	}
	parsed, err := dataset.FromCSV(name, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), parsed, nil
}

// queriesFor lists valid vizql sources over a generated dataset.
func queriesFor(name string, cols int) []string {
	qs := []string{
		fmt.Sprintf("VISUALIZE bar SELECT region, SUM(metric1) FROM %s GROUP BY region", name),
		fmt.Sprintf("VISUALIZE line SELECT when, AVG(metric1) FROM %s BIN when BY MONTH ORDER BY when", name),
	}
	if cols >= 4 {
		qs = append(qs, fmt.Sprintf("VISUALIZE scatter SELECT metric1, metric2 FROM %s", name))
	}
	return qs
}

// questionsFor lists natural-language questions every generated schema
// answers; a question that fails to parse is a hard error.
func questionsFor(cols int) []string {
	qs := []string{
		"total metric1 by region",
		"monthly average metric1",
		"top 3 regions by total metric1",
		"count by region",
		"metric1 share by region",
	}
	if cols >= 4 {
		qs = append(qs, "metric1 versus metric2")
	}
	return qs
}

// rowGen produces append batches matching a generated schema. Cells
// always parse under the registered column types, so appends never
// change how a cold rebuild would type a column.
type rowGen struct {
	rng  *rand.Rand
	base time.Time
}

func newRowGen(seed int64) *rowGen {
	return &rowGen{rng: rand.New(rand.NewSource(seed)), base: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// batch returns n rows of width cols and their headerless CSV body.
func (g *rowGen) batch(n, cols int) ([][]string, []byte) {
	rows := make([][]string, n)
	var buf bytes.Buffer
	for i := range rows {
		r := make([]string, cols)
		r[0] = fmt.Sprintf("region_%c0", 'A'+rune(g.rng.Intn(6)))
		r[1] = g.base.Add(time.Duration(g.rng.Int63n(int64(365 * 24 * time.Hour)))).Format("2006-01-02 15:04:05")
		m1 := g.rng.Float64() * 1000
		r[2] = num(m1)
		for j := 3; j < cols; j++ {
			switch (j - 3) % 3 {
			case 0:
				r[j] = num(2*m1 + g.rng.NormFloat64()*25)
			case 1:
				r[j] = num(50 + g.rng.NormFloat64()*12)
			default:
				v := math.Abs(g.rng.NormFloat64())
				r[j] = num(v * v * v * 50)
			}
		}
		rows[i] = r
		for j, cell := range r {
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(cell)
		}
		buf.WriteByte('\n')
	}
	return rows, buf.Bytes()
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// op is one generated request.
type op struct {
	kind load.OpKind
	ds   string // target scenario dataset; "" for register and drop
	k    int
	q    string // vizql source, question or keywords
	eph  int    // register: id of the dataset it creates; drop: id it deletes
	rows int    // register: shape of the ephemeral dataset
	cols int
}

// key identifies a read request: two reads with the same key on an
// unchanged dataset must be answered identically.
func (o op) key() string {
	return fmt.Sprintf("%s %s k=%d q=%s", o.kind, o.ds, o.k, o.q)
}

// ephName is the registry name of ephemeral dataset id.
func ephName(id int) string { return "eph-" + strconv.Itoa(id) }

// ephInput generates ephemeral dataset id's registration body and the
// fingerprint the server must acknowledge for it.
func (w *workload) ephInput(o op) ([]byte, string, error) {
	csv, tab, err := generateTable(ephName(o.eph), o.rows, o.cols, subSeed(w.seed, saltEph+uint64(o.eph)))
	if err != nil {
		return nil, "", err
	}
	return csv, tab.Fingerprint(), nil
}

// deckSize is how many ops one shuffled deck holds. Every deck holds
// each op spec in proportion to its weight, so a run's mix is exact
// instead of drifting with the seed.
const deckSize = 400

// opStream is the workload's op sequence, drawn lazily but always in
// index order, so op i is the same for a given seed however far the
// run gets and whichever worker asks first.
//
// Ops come off seeded shuffles of a deck that holds every op spec in
// proportion to its weight. On a dataset the mix appends to, a read is
// held back while its key (kind, dataset, k) has already been read on
// the dataset's current content and another card can go first: that
// is what makes a read-after-write mix land its reads on fresh epochs
// instead of on a seed-dependent share of cache hits.
type opStream struct {
	w       *workload
	rng     *rand.Rand
	written map[string]bool // datasets the mix appends to
	mu      sync.Mutex
	ops     []op
	deck    []int                      // spec indices still to deal, next first
	read    map[string]map[string]bool // dataset → read keys answered on its current content
	live    []int                      // ephemeral ids registered and not yet dropped
	nextEph int
}

func newOpStream(w *workload) *opStream {
	s := &opStream{w: w, rng: rand.New(rand.NewSource(subSeed(w.seed, saltOps))),
		written: map[string]bool{}, read: map[string]map[string]bool{}}
	for _, o := range w.sc.Ops {
		if o.Kind == load.OpAppend {
			s.written[o.Dataset] = true
		}
	}
	return s
}

// at returns op i, drawing every op before it first.
func (s *opStream) at(i int) op {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ops) <= i {
		s.ops = append(s.ops, s.draw())
	}
	return s.ops[i]
}

// shuffle deals a new deck: deckSize cards apportioned over the specs
// by weight (largest remainder), in seeded random order.
func (s *opStream) shuffle() {
	specs := s.w.sc.Ops
	total := s.w.sc.WeightSum()
	counts := make([]int, len(specs))
	frac := make([]float64, len(specs))
	order := make([]int, len(specs))
	left := deckSize
	for i, o := range specs {
		exact := o.Weight / total * deckSize
		counts[i] = int(exact)
		frac[i] = exact - float64(counts[i])
		left -= counts[i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	s.deck = s.deck[:0]
	for i, n := range counts {
		for range n {
			s.deck = append(s.deck, i)
		}
	}
	s.rng.Shuffle(len(s.deck), func(a, b int) { s.deck[a], s.deck[b] = s.deck[b], s.deck[a] })
}

// stale reports whether dealing spec now would read a key again on a
// dataset the mix writes but that has not changed since.
func (s *opStream) stale(spec load.OpSpec) bool {
	return isRead(spec.Kind) && s.written[spec.Dataset] && s.read[spec.Dataset][readKey(spec)]
}

func readKey(spec load.OpSpec) string { return fmt.Sprintf("%s k=%d", spec.Kind, spec.K) }

func (s *opStream) draw() op {
	if len(s.deck) == 0 {
		s.shuffle()
	}
	specs := s.w.sc.Ops
	pick := 0
	for j, c := range s.deck {
		if !s.stale(specs[c]) {
			pick = j
			break
		}
	}
	spec := specs[s.deck[pick]]
	s.deck = append(s.deck[:pick], s.deck[pick+1:]...)

	o := op{kind: spec.Kind, ds: spec.Dataset, k: spec.K}
	if isRead(spec.Kind) {
		if s.read[o.ds] == nil {
			s.read[o.ds] = map[string]bool{}
		}
		s.read[o.ds][readKey(spec)] = true
	}
	switch spec.Kind {
	case load.OpQuery, load.OpNLQ, load.OpSearch:
		texts := s.w.textsFor(spec)
		o.q = texts[s.rng.Intn(len(texts))]
	case load.OpAppend:
		delete(s.read, o.ds)
	case load.OpDrop:
		if n := len(s.live); n > 0 {
			o.eph = s.live[n-1]
			s.live = s.live[:n-1]
			break
		}
		// Nothing registered to drop yet: register instead, so no op
		// of the sequence is ever skipped.
		o.kind = load.OpRegister
		fallthrough
	case load.OpRegister:
		o.eph, o.rows, o.cols = s.nextEph, spec.Rows, spec.Cols
		s.nextEph++
		s.live = append(s.live, o.eph)
	}
	return o
}
