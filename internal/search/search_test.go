package search

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/dht"
	"repro/internal/piertest"
)

func corpus() map[string][]string {
	return map[string][]string{
		"song-a.mp3":  {"jazz", "piano", "live"},
		"song-b.mp3":  {"jazz", "guitar"},
		"song-c.mp3":  {"rock", "guitar", "live"},
		"lecture.ogg": {"jazz", "history"},
	}
}

func buildIndex(t *testing.T, n int, seed int64) ([]*Index, *piertest.Cluster) {
	t.Helper()
	c, err := piertest.New(piertest.Options{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	idx := make([]*Index, n)
	for i, nd := range c.Nodes {
		ix, err := New(nd, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		idx[i] = ix
	}
	// Spread the corpus across publishers.
	i := 0
	for file, words := range corpus() {
		if err := idx[i%n].PublishFile(file, words); err != nil {
			t.Fatal(err)
		}
		i++
	}
	time.Sleep(400 * time.Millisecond) // let puts land and replicate
	return idx, c
}

func TestSingleKeywordGet(t *testing.T) {
	idx, _ := buildIndex(t, 6, 31)
	got, err := idx[3].SearchGet(context.Background(), "jazz")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lecture.ogg", "song-a.mp3", "song-b.mp3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMultiKeywordIntersection(t *testing.T) {
	idx, _ := buildIndex(t, 6, 32)
	got, err := idx[0].SearchGet(context.Background(), "jazz", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"song-b.mp3"}) {
		t.Fatalf("got %v", got)
	}
	// Three keywords with empty intersection.
	got, err = idx[1].SearchGet(context.Background(), "jazz", "guitar", "rock")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty intersection, got %v", got)
	}
}

func TestCaseInsensitive(t *testing.T) {
	idx, _ := buildIndex(t, 4, 33)
	got, err := idx[0].SearchGet(context.Background(), "JAZZ", "Guitar")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"song-b.mp3"}) {
		t.Fatalf("got %v", got)
	}
}

func TestSearchJoinAgreesWithGet(t *testing.T) {
	idx, _ := buildIndex(t, 6, 34)
	viaGet, err := idx[2].SearchGet(context.Background(), "jazz", "live")
	if err != nil {
		t.Fatal(err)
	}
	viaJoin, err := idx[2].SearchJoin(context.Background(), "jazz", "live")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaGet, viaJoin) {
		t.Fatalf("strategies disagree: get=%v join=%v", viaGet, viaJoin)
	}
	if !reflect.DeepEqual(viaGet, []string{"song-a.mp3"}) {
		t.Fatalf("wrong answer: %v", viaGet)
	}
}

func TestMissingWord(t *testing.T) {
	idx, _ := buildIndex(t, 4, 35)
	got, err := idx[0].SearchGet(context.Background(), "nosuchword")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestNoKeywordsRejected(t *testing.T) {
	idx, _ := buildIndex(t, 2, 36)
	if _, err := idx[0].SearchGet(context.Background()); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestPostingsSurviveOwnerFailure(t *testing.T) {
	idx, c := buildIndex(t, 8, 37)
	// Find which node owns "jazz" and kill it.
	rid := wordKey("jazz").HashKey([]int{0})
	owner, _, err := c.Nodes[0].Router().Lookup(context.Background(),
		dht.StorageKey("table:inverted", rid))
	if err != nil {
		t.Fatal(err)
	}
	c.Net.SetDown(owner.Addr, true)
	// A surviving node still answers (replicas + republish).
	var searcher *Index
	for i, nd := range c.Nodes {
		if nd.Addr() != owner.Addr {
			searcher = idx[i]
			break
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		got, err := searcher.SearchGet(context.Background(), "jazz")
		if err == nil && len(got) == 3 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("postings lost after owner failure")
}

// TestSearchMatchesFloodWithFewerMessages is S5: a keyword answered by
// DHT gets finds every file bounded flooding finds, with fewer
// messages on the network.
func TestSearchMatchesFloodWithFewerMessages(t *testing.T) {
	const n, files = 24, 40
	c, err := piertest.New(piertest.Options{N: n, Seed: 38})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	idx := make([]*Index, n)
	floods := make([]*baseline.Flood, n)
	for i, nd := range c.Nodes {
		if idx[i], err = New(nd, time.Minute); err != nil {
			t.Fatal(err)
		}
		if floods[i], err = baseline.NewFlood(nd); err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for f := 0; f < files; f++ {
		words := []string{fmt.Sprintf("w%d", f%7)}
		if f%4 == 0 {
			words = append(words, "target")
			want++
		}
		name := fmt.Sprintf("file-%03d", f)
		if err := idx[f%n].PublishFile(name, words); err != nil {
			t.Fatal(err)
		}
		if err := floods[f%n].ShareFile(name, words); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(600 * time.Millisecond) // let puts land and replicate

	c.Net.ResetStats()
	viaGet, err := idx[0].SearchGet(context.Background(), "target")
	if err != nil {
		t.Fatal(err)
	}
	getMsgs := c.Net.Stats().Sent
	c.Net.ResetStats()
	// Hop budget 10: with successor-list fan-out 4, depth 6 only just
	// covers 24 nodes, so the slack keeps flooding's recall complete.
	viaFlood, err := floods[0].Search(context.Background(), "target", 10, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	floodMsgs := c.Net.Stats().Sent

	if len(viaGet) != want || !reflect.DeepEqual(viaGet, viaFlood) {
		t.Fatalf("DHT search found %d files, flooding %d, want %d", len(viaGet), len(viaFlood), want)
	}
	if getMsgs >= floodMsgs {
		t.Fatalf("DHT search cost %d messages, flooding %d", getMsgs, floodMsgs)
	}
	t.Logf("messages: DHT get %d, flooding %d", getMsgs, floodMsgs)
}
