package core

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// effortCounts are the search-effort counters that depend on the order in
// which states are visited (see assertSameExploration).
type effortCounts struct {
	States, MemoHits, RevisitsTried, RevisitsTaken, RevisitsRepairFail, ConsistencyChecks, SinkExtensions int
}

// TestGoldenExplorationKeys pins the set of execution keys a few
// explorations collect, as a count and a SHA-256 of the sorted keys: a
// change to the graph's layout or to the revisit machinery that keeps
// these digests changed neither what is explored nor how it is keyed. The
// sequential visit order is pinned too, by a digest of the keys in
// completion order and by the effort counters: the memo key ignores
// stamps, so which of two equal-keyed graphs is expanded first steers
// later revisit keep sets, and a scheduler that reorders the search can
// shift States and MemoHits without changing the execution set.
func TestGoldenExplorationKeys(t *testing.T) {
	for _, c := range []struct {
		p       *prog.Program
		model   string
		n       int
		digest  string
		ordered string
		effort  effortCounts
	}{
		{gen.IncN(3, 2), "sc", 90, "849244e0065f5b379166fc00128dd07d33e84190a91fdb11538922ab828edb43",
			"0e394a6347353fb19c4984bf13a887b368f953b51bbea40f9b5759eea0be7784", effortCounts{170, 106, 867, 46, 821, 503, 80}},
		{gen.LBN(4), "imm", 16, "dd349aa6926b0abe313fabfb8920e6989a235b891dd64dca75fd1834d993121c",
			"10ded04f5a800869e44c3129a643a7ee558dc14fb0734449f8b0c14d41220181", effortCounts{54, 11, 15, 15, 0, 26, 38}},
		{gen.LBN(4), "arm", 16, "dd349aa6926b0abe313fabfb8920e6989a235b891dd64dca75fd1834d993121c",
			"10ded04f5a800869e44c3129a643a7ee558dc14fb0734449f8b0c14d41220181", effortCounts{54, 11, 15, 15, 0, 26, 38}},
		{gen.SBN(4), "tso", 16, "8d16c187b0185d8a50b304de87fc3b8faebd2aeb1dd7a9cc410c4830d4917224",
			"87e91a323c05cec1ebe779b2d86336032f991a76d3505c58e559c19217a9cccb", effortCounts{39, 0, 7, 7, 0, 15, 23}},
		{gen.TreiberPushPop(eg.FenceNone), "relaxed", 3, "3aa927cbff23e1b5fe65edf353af4b0b1767ba671df2e824a76c38c917579799",
			"f63229123c2f313d918debc0ab983e819acfacce86ce8159b333af615a54a85d", effortCounts{15, 1, 7, 1, 6, 11, 10}},
		{gen.IncN(3, 3), "sc", 1680, "6a0c22a5735fbdc3374d93b355e8f64f222dd89b8ba75e7fc97460a8a9e6fba9",
			"831e97d376cd817159c178d14a43d91b2910b158b7b5a30c20a1c4c84d7de2d4", effortCounts{3227, 2164, 29981, 902, 29079, 15286, 1547}},
		{gen.LBN(10), "imm", 1024, "39831fd6de3b19f3e32e17b5cab90b7692221d062198d4296cad2cc7ea69c567",
			"f020ddcea4a1cf77f6303e8cc56bcf7e70f2c77d7acfc6a40998a409f6b9e319", effortCounts{4074, 1013, 1023, 1023, 0, 2036, 3050}},
	} {
		m, err := memmodel.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(c.p, Options{Model: m, CollectKeys: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ordered := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(res.Keys, "\n"))))
		keys := append([]string(nil), res.Keys...)
		sort.Strings(keys)
		digest := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(keys, "\n"))))
		if len(keys) != c.n || digest != c.digest {
			t.Errorf("%s/%s: %d keys, digest %s; want %d, %s", c.p.Name, c.model, len(keys), digest, c.n, c.digest)
		}
		if ordered != c.ordered {
			t.Errorf("%s/%s: keys in completion order digest %s, want %s", c.p.Name, c.model, ordered, c.ordered)
		}
		effort := effortCounts{res.States, res.MemoHits, res.RevisitsTried, res.RevisitsTaken,
			res.RevisitsRepairFail, res.ConsistencyChecks, res.SinkExtensions}
		if effort != c.effort {
			t.Errorf("%s/%s: effort %+v, want %+v", c.p.Name, c.model, effort, c.effort)
		}
	}
}
