// Package service turns the one-shot analysis machinery (core.Analyze, the
// discovery searches, the entropy/MI/CMI measures) into a long-running
// concurrent analysis engine: a registry of warm datasets, serializable JSON
// views of every result, request coalescing so identical concurrent analyses
// compute once, and a bounded LRU cache of finished results. cmd/ajdlossd
// exposes it over HTTP.
package service

import (
	"sync"

	"ajdloss/internal/core"
	"ajdloss/internal/discovery"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
)

// bodyMemo is the encoded HTTP body of one cached view. The view is shared
// and immutable once Service.do publishes it, so its encoding never changes:
// the first writeJSON that serves the view fills the memo, and every later
// LRU hit writes the same bytes without re-encoding. A failed encoding is
// memoized too, so every hit answers the same 500.
type bodyMemo struct {
	once sync.Once
	body []byte
	err  error
}

// cachedBody is embedded in the four view types Service.do caches
// (ReportView, EntropyView, BatchView, DiscoverView). The memo is set when
// the view is built inside do's closure, before the view is shared; a view
// without one (built elsewhere, or a per-caller copy of a cached view) is
// encoded fresh on every write. encoding/json ignores the embedded struct,
// which has no exported fields, and the pointer keeps copies of a view free
// of the sync.Once.
type cachedBody struct{ memo *bodyMemo }

func newCachedBody() cachedBody { return cachedBody{memo: new(bodyMemo)} }

// encoded returns the body of v, the view that embeds c: encodeJSON(v),
// computed once per memo.
func (c cachedBody) encoded(v any) ([]byte, error) {
	if c.memo == nil {
		return encodeJSON(v)
	}
	c.memo.once.Do(func() { c.memo.body, c.memo.err = encodeJSON(v) })
	return c.memo.body, c.memo.err
}

// LossView is the serializable form of core.Loss.
type LossView struct {
	N             int     `json:"n"`
	JoinSize      int64   `json:"join_size"`
	Spurious      int64   `json:"spurious"`
	Rho           float64 `json:"rho"`
	LogOnePlusRho float64 `json:"log_one_plus_rho"`
}

func newLossView(l core.Loss) LossView {
	return LossView{
		N:             l.N,
		JoinSize:      l.JoinSize,
		Spurious:      l.Spurious,
		Rho:           l.Rho,
		LogOnePlusRho: l.LogOnePlusRho(),
	}
}

// MVDView is the serializable form of an MVD X ↠ Y | Z.
type MVDView struct {
	X       []string `json:"x"`
	Y       []string `json:"y"`
	Z       []string `json:"z"`
	Display string   `json:"display"`
}

func newMVDView(m jointree.MVD) MVDView {
	return MVDView{X: m.X, Y: m.Y, Z: m.Z, Display: m.String()}
}

// MVDTermView is one support MVD of a report: its loss, CMI, and the
// Proposition 5.1 term log(1+ρ).
type MVDTermView struct {
	MVD           MVDView  `json:"mvd"`
	Loss          LossView `json:"loss"`
	CMI           float64  `json:"cmi"`
	LogOnePlusRho float64  `json:"log_one_plus_rho"`
}

// ReportView is the serializable form of core.Report: every quantity the
// paper relates, side by side, plus both J units for convenience. Like every
// cached view it carries a body memo (cachedBody): once shared it must not be
// modified, because its first HTTP write fixes the bytes every hit serves.
type ReportView struct {
	cachedBody
	Schema     string        `json:"schema"`
	Bags       [][]string    `json:"bags"`
	N          int           `json:"n"`
	Generation int64         `json:"generation"`
	J          float64       `json:"j_nats"`
	JBits      float64       `json:"j_bits"`
	KL         float64       `json:"kl_nats"`
	Loss       LossView      `json:"loss"`
	RhoLower   float64       `json:"rho_lower_bound"`
	MaxCMI     float64       `json:"max_cmi"`
	SumCMI     float64       `json:"sum_cmi"`
	SumLogLoss float64       `json:"sum_log_loss"`
	Lossless   bool          `json:"lossless"`
	Support    []MVDTermView `json:"support_mvds,omitempty"`
}

// NewReportView converts a core.Report into its serializable view.
func NewReportView(rep *core.Report) *ReportView {
	v := &ReportView{
		Schema:     rep.Schema.String(),
		Bags:       rep.Schema.Bags(),
		N:          rep.N,
		J:          rep.J,
		JBits:      infotheory.Bits(rep.J),
		KL:         rep.KL,
		Loss:       newLossView(rep.Loss),
		RhoLower:   rep.RhoLower,
		MaxCMI:     rep.MaxCMI,
		SumCMI:     rep.SumCMI,
		SumLogLoss: rep.SumLogLoss,
		Lossless:   rep.Lossless,
	}
	for _, t := range rep.PerMVD {
		v.Support = append(v.Support, MVDTermView{
			MVD:           newMVDView(t.MVD),
			Loss:          newLossView(t.Loss),
			CMI:           t.CMI,
			LogOnePlusRho: t.LogOnePlus,
		})
	}
	return v
}

// CandidateView is the serializable form of a discovered schema candidate:
// the join tree plus its J-measure and measured loss.
type CandidateView struct {
	Schema string     `json:"schema"`
	Bags   [][]string `json:"bags"`
	Edges  [][2]int   `json:"edges"`
	J      float64    `json:"j_nats"`
	Loss   LossView   `json:"loss"`
}

// candidateView converts a discovery.Candidate together with its measured
// loss (the same pairing the discover CLI reports).
func candidateView(c discovery.Candidate, loss core.Loss) CandidateView {
	return CandidateView{
		Schema: c.Schema().String(),
		Bags:   c.Tree.Bags,
		Edges:  c.Tree.Edges,
		J:      c.J,
		Loss:   newLossView(loss),
	}
}

// MVDCandidateView is the serializable form of a mined approximate MVD.
type MVDCandidateView struct {
	X      []string   `json:"x"`
	Groups [][]string `json:"groups"`
	J      float64    `json:"j_nats"`
	Rho    float64    `json:"rho"`
}

// DiscoverView is the result of a discovery request: the Chow-Liu tree, the
// best coarsened candidate at the target, and the mined approximate MVDs.
// It is cached with a body memo, like ReportView.
type DiscoverView struct {
	cachedBody
	Dataset      string             `json:"dataset"`
	Rows         int                `json:"rows"`
	Generation   int64              `json:"generation"`
	Target       float64            `json:"target"`
	MaxSep       int                `json:"max_sep"`
	ChowLiu      CandidateView      `json:"chow_liu"`
	Best         CandidateView      `json:"best"`
	Contractions int                `json:"contractions"`
	MVDs         []MVDCandidateView `json:"mvds"`
}

// EntropyView is the result of an entropy/MI/CMI query. Rows and Generation
// identify the dataset state the value was computed against: both are read
// under the same lock as the measure, so a response can never pair one
// generation's label with another generation's number. It is cached with a
// body memo, like ReportView; a hit spelled differently from the cached
// request gets a copy without one (see EntropyIn).
type EntropyView struct {
	cachedBody
	Dataset    string   `json:"dataset"`
	Kind       string   `json:"kind"` // "entropy", "conditional_entropy", "mi", "cmi"
	Attrs      []string `json:"attrs,omitempty"`
	A          []string `json:"a,omitempty"`
	B          []string `json:"b,omitempty"`
	Given      []string `json:"given,omitempty"`
	Rows       int      `json:"rows"`
	Generation int64    `json:"generation"`
	Nats       float64  `json:"nats"`
	Bits       float64  `json:"bits"`
}

// AppendView is the result of a streaming append batch: how many rows were
// new, how many were duplicates (appends are idempotent — re-sending a batch
// adds nothing), and the dataset's row count and generation after the batch.
type AppendView struct {
	Dataset    string `json:"dataset"`
	Appended   int    `json:"appended"`
	Duplicates int    `json:"duplicates"`
	Rows       int    `json:"rows"`
	Generation int64  `json:"generation"`
}

// CheckpointView is the result of a manual checkpoint request: the frozen
// state that was made durable (rows and generation of the view the
// checkpoint serialized) and the WAL size left after compaction.
type CheckpointView struct {
	Dataset    string `json:"dataset"`
	Rows       int    `json:"rows"`
	Generation int64  `json:"generation"`
	WALBytes   int64  `json:"wal_bytes"`
}

// BatchQuery is one query of a POST /batch request. Kind selects the measure
// and which fields are read:
//
//	"entropy"              H(attrs), or H(attrs|given) when given is set
//	"conditional_entropy"  alias for entropy-with-given
//	"mi" / "cmi"           I(a;b) / I(a;b|given)
//	"fd"                   the FD x → y: holds plus its g₃ error
//	"distinct"             number of distinct projected rows of attrs
type BatchQuery struct {
	Kind  string   `json:"kind"`
	Attrs []string `json:"attrs,omitempty"`
	Given []string `json:"given,omitempty"`
	A     []string `json:"a,omitempty"`
	B     []string `json:"b,omitempty"`
	X     []string `json:"x,omitempty"`
	Y     []string `json:"y,omitempty"`
}

// BatchResultView is the answer to one batch query, echoing the query it
// answers. Exactly one family of fields is set: Nats/Bits for the entropy
// kinds, Holds/G3 for "fd", Distinct for "distinct".
type BatchResultView struct {
	Query    BatchQuery `json:"query"`
	Nats     *float64   `json:"nats,omitempty"`
	Bits     *float64   `json:"bits,omitempty"`
	Holds    *bool      `json:"holds,omitempty"`
	G3       *float64   `json:"g3,omitempty"`
	Distinct *int       `json:"distinct,omitempty"`
}

// BatchView is the result of a batch request: every query answered against
// one snapshot — Rows and Generation identify it — in a single round trip.
// It is cached with a body memo, like ReportView; a hit spelled differently
// from the cached request gets a copy without one (see BatchIn).
type BatchView struct {
	cachedBody
	Dataset    string            `json:"dataset"`
	Rows       int               `json:"rows"`
	Generation int64             `json:"generation"`
	Results    []BatchResultView `json:"results"`
}
