package mulini

import (
	"strings"
	"testing"
)

func TestBundleAddGet(t *testing.T) {
	b := NewBundle()
	if err := b.Add(Artifact{Path: "a.sh", Kind: Script, Content: "x\ny\n"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(Artifact{Path: "a.sh", Kind: Script}); err == nil {
		t.Fatalf("duplicate path should error")
	}
	if err := b.Add(Artifact{Kind: Script}); err == nil {
		t.Fatalf("empty path should error")
	}
	a, ok := b.Get("a.sh")
	if !ok || a.Lines() != 2 {
		t.Fatalf("get failed: %v %v", a, ok)
	}
	if b.Len() != 1 || len(b.Paths()) != 1 {
		t.Fatalf("bookkeeping wrong")
	}
}

func TestArtifactLines(t *testing.T) {
	cases := []struct {
		content string
		want    int
	}{
		{"", 0},
		{"x", 1},
		{"x\n", 1},
		{"x\ny", 2},
		{"x\ny\n", 2},
	}
	for _, c := range cases {
		a := Artifact{Content: c.content}
		if got := a.Lines(); got != c.want {
			t.Errorf("Lines(%q) = %d, want %d", c.content, got, c.want)
		}
	}
}

func TestBundleKindAccounting(t *testing.T) {
	b := NewBundle()
	b.Add(Artifact{Path: "s.sh", Kind: Script, Content: "1\n2\n3\n"})
	b.Add(Artifact{Path: "c.properties", Kind: Config, Content: "1\n"})
	b.Add(Artifact{Path: "d.dat", Kind: Data, Content: "1\n2\n"})
	if got := b.TotalLines(Script); got != 3 {
		t.Errorf("script lines = %d", got)
	}
	if got := b.TotalLines(-1); got != 6 {
		t.Errorf("all lines = %d", got)
	}
	if got := len(b.ByKind(Config)); got != 1 {
		t.Errorf("config artifacts = %d", got)
	}
}

func TestBundleSummary(t *testing.T) {
	b := NewBundle()
	b.Add(Artifact{Path: "run.sh", Kind: Script, Content: "a\nb\n", Comment: "master"})
	s := b.Summary()
	if !strings.Contains(s, "run.sh") || !strings.Contains(s, "master") || !strings.Contains(s, "2 lines") {
		t.Fatalf("summary = %q", s)
	}
}

func TestKindString(t *testing.T) {
	if Script.String() != "script" || Config.String() != "config" || Data.String() != "data" {
		t.Fatalf("kind names wrong")
	}
	if ArtifactKind(9).String() == "" {
		t.Fatalf("unknown kind should render")
	}
}
