package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// goldenCampaignPath pins the builtin paper campaign's decisions on a small
// subset: S1, S4 and the power-capped S8 under the Heuristic and the
// Optimization GA at tiny scale on one fixed seed. Each line is a cell's
// label and the SHA-256 of its full report (every float in shortest
// round-trip form), so any change in what either picker decides shows up as
// a changed digest. A deliberate change of behavior regenerates it with:
//
//	UPDATE_GOLDEN=1 go test -run TestPaperCampaignGolden ./internal/experiments/
var goldenCampaignPath = filepath.Join("..", "..", "specs", "golden-paper-campaign-tiny.sha256")

func goldenCampaignDigests(t *testing.T) []byte {
	t.Helper()
	ss := scenario.TinyScaleSpec()
	ss.Seed = 11
	spec := scenario.PaperCampaign(ss)
	spec.Scenarios = nil
	for _, name := range []string{"S1", "S4", "S8"} {
		sp, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Scenarios = append(spec.Scenarios, sp)
	}
	results, err := RunCampaign(spec, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	all := sha256.New()
	for _, r := range results {
		report := fmt.Sprintf("%+v", r.Report)
		all.Write([]byte(report))
		fmt.Fprintf(&out, "%s %x\n", r.Cell.Label(), sha256.Sum256([]byte(report)))
	}
	fmt.Fprintf(&out, "all %x\n", all.Sum(nil))
	return out.Bytes()
}

func TestPaperCampaignGolden(t *testing.T) {
	got := goldenCampaignDigests(t)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(goldenCampaignPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenCampaignPath)
	}
	want, err := os.ReadFile(goldenCampaignPath)
	if err != nil {
		t.Fatalf("golden fixture missing (generate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("campaign reports drifted from %s:\n got:\n%s\nwant:\n%s", goldenCampaignPath, got, want)
	}
}
