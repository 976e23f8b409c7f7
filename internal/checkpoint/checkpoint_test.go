package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viralcast/internal/embed"
	"viralcast/internal/xrand"
)

func testState(t *testing.T) *State {
	t.Helper()
	m := embed.NewModel(12, 3)
	m.InitUniform(xrand.New(9), 0.1, 0.9)
	return &State{Model: m, Level: 2, Seed: 42, LogLik: -987.25}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	want := testState(t)
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != want.Level || got.Seed != want.Seed || got.LogLik != want.LogLik {
		t.Fatalf("state mismatch: got %+v", got)
	}
	if got.Model.A.FrobeniusDist(want.Model.A) != 0 || got.Model.B.FrobeniusDist(want.Model.B) != 0 {
		t.Fatal("model not restored bit-for-bit")
	}
}

// savedBefore is the checkpoint file, byte for byte, that Save wrote for
// the state TestSaveBytesPinned builds while the header still carried an
// epoch count and a step size — pinned from a build whose checkpoint
// package wrote its own envelope.
const savedBefore = `viralcast-checkpoint v1
level=2 epoch=17 step=0.125 seed=42 loglik=-987.25
payload bytes=112 crc32=28bf0688
node,kind,topic0,topic1
0,0,0,0.25
0,1,0,0.5
1,0,0.5,0.75
1,1,1,1.5
2,0,1,1.25
2,1,2,2.5
3,0,1.5,1.75
3,1,3,3.5
`

// TestSaveBytesPinned holds the file format still in both directions: a
// checkpoint an older binary saved loads (its epoch and step are
// dropped), and saving the same state writes the same bytes less those
// two fields.
func TestSaveBytesPinned(t *testing.T) {
	m := embed.NewModel(4, 2)
	for i := range m.A.Data {
		m.A.Data[i] = float64(i) * 0.25
		m.B.Data[i] = float64(i) * 0.5
	}
	want := &State{Model: m, Level: 2, Seed: 42, LogLik: -987.25}
	saved := strings.Replace(savedBefore, " epoch=17 step=0.125", "", 1)
	dir := t.TempDir()
	old := filepath.Join(dir, "old")
	if err := os.WriteFile(old, []byte(savedBefore), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := Load(old)
	if err != nil {
		t.Fatalf("loading a checkpoint in the pinned format: %v", err)
	}
	if got.Level != want.Level || got.Seed != want.Seed || got.LogLik != want.LogLik ||
		got.Model.A.FrobeniusDist(m.A) != 0 || got.Model.B.FrobeniusDist(m.B) != 0 {
		t.Fatalf("pinned checkpoint loaded as %+v", got)
	}
	path := filepath.Join(dir, "new")
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != saved {
		t.Fatalf("Save wrote (%v)\n%s\nwant\n%s", err, raw, saved)
	}
	// A retired field still has to parse, and may appear once.
	for _, header := range []string{"level=2 epoch=x step=0.125", "level=2 epoch=17 epoch=17 step=0.125"} {
		bad := filepath.Join(dir, "bad")
		if err := os.WriteFile(bad, []byte(strings.Replace(savedBefore, "level=2 epoch=17 step=0.125", header, 1)), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Errorf("header %q accepted", header)
		}
	}
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	if err := Save(path, testState(t)); err != nil {
		t.Fatal(err)
	}
	// Overwriting goes through the same temp+rename dance.
	if err := Save(path, testState(t)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ckpt" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after save: %v", names)
	}
}

// TestLoadDetectsInjectedTruncation chops the tail off a saved
// checkpoint, as a crash mid-write on a filesystem without Save's atomic
// rename would.
func TestLoadDetectsInjectedTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := Save(path, testState(t)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-100); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("truncated checkpoint loaded without error")
	}
	if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("unhelpful corruption error: %v", err)
	}
}

func TestLoadDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := Save(path, testState(t)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-20] ^= 0x04 // flip one payload bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "crc32") {
		t.Fatalf("bit flip not caught: %v", err)
	}
}

func TestLoadDetectsTrailingGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := Save(path, testState(t)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("extra\n")
	f.Close()
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing garbage not caught: %v", err)
	}
}

func TestLoadRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notckpt")
	if err := os.WriteFile(path, []byte("node,kind,topic0\n0,0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "not a checkpoint") {
		t.Fatalf("foreign file accepted: %v", err)
	}
}

func TestResumeMissingFileIsNil(t *testing.T) {
	st, err := Resume(filepath.Join(t.TempDir(), "nope"))
	if st != nil || err != nil {
		t.Fatalf("got %v, %v; want nil, nil", st, err)
	}
}

func TestSaveRejectsNilState(t *testing.T) {
	if err := Save(filepath.Join(t.TempDir(), "ckpt"), nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if err := Save(filepath.Join(t.TempDir(), "ckpt"), &State{}); err == nil {
		t.Fatal("nil model accepted")
	}
}
