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

// TestGoldenExplorationKeys pins the set of execution keys a few
// explorations collect, as a count and a SHA-256 of the sorted keys: a
// change to the graph's layout or to the revisit machinery that keeps
// these digests changed neither what is explored nor how it is keyed.
func TestGoldenExplorationKeys(t *testing.T) {
	for _, c := range []struct {
		p      *prog.Program
		model  string
		n      int
		digest string
	}{
		{gen.IncN(3, 2), "sc", 90, "849244e0065f5b379166fc00128dd07d33e84190a91fdb11538922ab828edb43"},
		{gen.LBN(4), "imm", 16, "dd349aa6926b0abe313fabfb8920e6989a235b891dd64dca75fd1834d993121c"},
		{gen.LBN(4), "arm", 16, "dd349aa6926b0abe313fabfb8920e6989a235b891dd64dca75fd1834d993121c"},
		{gen.SBN(4), "tso", 16, "8d16c187b0185d8a50b304de87fc3b8faebd2aeb1dd7a9cc410c4830d4917224"},
		{gen.TreiberPushPop(eg.FenceNone), "relaxed", 3, "3aa927cbff23e1b5fe65edf353af4b0b1767ba671df2e824a76c38c917579799"},
	} {
		m, err := memmodel.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(c.p, Options{Model: m, CollectKeys: true})
		if err != nil {
			t.Fatal(err)
		}
		keys := append([]string(nil), res.Keys...)
		sort.Strings(keys)
		digest := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(keys, "\n"))))
		if len(keys) != c.n || digest != c.digest {
			t.Errorf("%s/%s: %d keys, digest %s; want %d, %s", c.p.Name, c.model, len(keys), digest, c.n, c.digest)
		}
	}
}
