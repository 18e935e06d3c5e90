package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// serializeGolden holds the SHA-256 of Serialize for every store variant
// and seed built by goldenStore, and of the two halves of its split on
// dimension 0. A change to the leaf layout must not change a byte.
var serializeGolden = map[string]string{
	"array/seed1/left":        "ff923448d2f9ef12",
	"array/seed1/right":       "c28ef6bdfacb952a",
	"array/seed1/whole":       "6b3bf995717af033",
	"array/seed2/left":        "5e57994c08980f52",
	"array/seed2/right":       "a98c032c2a29cd48",
	"array/seed2/whole":       "9d985616da3d116a",
	"array/seed3/left":        "e0af7e54992c789c",
	"array/seed3/right":       "646a914419a83c28",
	"array/seed3/whole":       "c2423f4ca3f2e5b2",
	"hilbert-mbr/seed1/left":  "4066aa3e6fa7a2d4",
	"hilbert-mbr/seed1/right": "7521a3821b00480b",
	"hilbert-mbr/seed1/whole": "7c8b6428d8f666cb",
	"hilbert-mbr/seed2/left":  "8ac24591ba2b84fe",
	"hilbert-mbr/seed2/right": "807d28e6d92d7a11",
	"hilbert-mbr/seed2/whole": "a7e98a064be0d18f",
	"hilbert-mbr/seed3/left":  "9a8a6c187649efe0",
	"hilbert-mbr/seed3/right": "3ae89c423be7df7a",
	"hilbert-mbr/seed3/whole": "dc9f343d4c804957",
	"hilbert-mds/seed1/left":  "233a932c61982188",
	"hilbert-mds/seed1/right": "9594e208b7e6fcf0",
	"hilbert-mds/seed1/whole": "0b5e1253dd3ad7a1",
	"hilbert-mds/seed2/left":  "9d4dce2761f58e57",
	"hilbert-mds/seed2/right": "6bd629513f29b6ec",
	"hilbert-mds/seed2/whole": "41a6ca6fac6a8d66",
	"hilbert-mds/seed3/left":  "a39786d83eaf3f37",
	"hilbert-mds/seed3/right": "9b195077ebbdf379",
	"hilbert-mds/seed3/whole": "df2d56ec0fa8e6cb",
	"pdc-mbr/seed1/left":      "0af5799e1413eaa7",
	"pdc-mbr/seed1/right":     "bee1a8ac5b14fe38",
	"pdc-mbr/seed1/whole":     "b93e6bb2b05faa89",
	"pdc-mbr/seed2/left":      "321d1f119a83a019",
	"pdc-mbr/seed2/right":     "02d8007886ada033",
	"pdc-mbr/seed2/whole":     "1187e4d33af3b1bb",
	"pdc-mbr/seed3/left":      "698b1594108ff0b4",
	"pdc-mbr/seed3/right":     "71c851c449fa6636",
	"pdc-mbr/seed3/whole":     "ff196eecb452911d",
	"pdc-mds/seed1/left":      "bce7e0b4d4630c55",
	"pdc-mds/seed1/right":     "accc9a75b328bdd6",
	"pdc-mds/seed1/whole":     "c031a6589192cdf1",
	"pdc-mds/seed2/left":      "c9c303fcaf6e1cc2",
	"pdc-mds/seed2/right":     "63975edb773b9388",
	"pdc-mds/seed2/whole":     "496c071a14ed90b1",
	"pdc-mds/seed3/left":      "0be6dd1af22af59f",
	"pdc-mds/seed3/right":     "787f7bbb93289525",
	"pdc-mds/seed3/whole":     "cc2838299a20ba0f",
}

// goldenStore builds the store the golden hashes were taken on: 2 000
// random items, half bulk-loaded and half inserted one by one.
func goldenStore(t *testing.T, cfg Config, seed int64) Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, 2000)
	for i := range items {
		items[i] = randItem(rng, cfg.Schema)
	}
	if err := s.BulkLoad(items[:1000]); err != nil {
		t.Fatal(err)
	}
	for _, it := range items[1000:] {
		if err := s.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSerializeGolden pins Serialize's bytes, and those of Split's
// halves, to hashes taken before leaves became column blocks.
func TestSerializeGolden(t *testing.T) {
	for name, cfg := range allConfigs(t) {
		for seed := int64(1); seed <= 3; seed++ {
			s := goldenStore(t, cfg, seed)
			l, r, err := s.Split(Hyperplane{Dim: 0, Value: cfg.Schema.Dim(0).LeafCount() / 4})
			if err != nil {
				t.Fatal(err)
			}
			for part, st := range map[string]Store{"whole": s, "left": l, "right": r} {
				key := fmt.Sprintf("%s/seed%d/%s", name, seed, part)
				sum := sha256.Sum256(st.Serialize())
				got := hex.EncodeToString(sum[:8])
				if want := serializeGolden[key]; got != want {
					t.Errorf("%q: %s, want %s", key, got, want)
				}
			}
		}
	}
}
