// Command filesearch demonstrates the paper's keyword file-sharing
// search application: an inverted index published into the DHT,
// multi-keyword queries answered by direct posting-list fetches and
// by a distributed self-join, and a Gnutella-style flooding baseline
// for cost comparison.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/baseline"
	"repro/internal/piertest"
	"repro/internal/search"
)

func main() {
	log.SetFlags(0)
	const n = 16
	fmt.Printf("== PIER file-sharing search: %d nodes ==\n\n", n)
	cluster, err := piertest.New(piertest.Options{N: n, Seed: 77})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	indexes := make([]*search.Index, n)
	floods := make([]*baseline.Flood, n)
	for i, nd := range cluster.Nodes {
		if indexes[i], err = search.New(nd, time.Minute); err != nil {
			log.Fatal(err)
		}
		if floods[i], err = baseline.NewFlood(nd); err != nil {
			log.Fatal(err)
		}
	}

	// Each node shares a few files; both the DHT index and the
	// flooding baseline's local tables see the same corpus.
	corpus := map[string][]string{
		"miles-davis-so-what.mp3":   {"jazz", "trumpet", "classic"},
		"coltrane-giant-steps.mp3":  {"jazz", "sax", "classic"},
		"evans-waltz-for-debby.mp3": {"jazz", "piano", "live"},
		"hendrix-voodoo-child.mp3":  {"rock", "guitar", "classic"},
		"king-crimson-red.mp3":      {"rock", "guitar"},
		"glass-etudes.mp3":          {"piano", "minimalism"},
		"lecture-jazz-history.ogg":  {"jazz", "history", "lecture"},
		"lecture-dht-routing.ogg":   {"dht", "lecture"},
		"monk-round-midnight.mp3":   {"jazz", "piano", "classic"},
		"pastorius-portrait.mp3":    {"jazz", "bass"},
		"bowie-heroes.mp3":          {"rock", "classic"},
		"reich-music-18.mp3":        {"minimalism", "classic"},
		"peterson-night-train.mp3":  {"jazz", "piano", "live"},
		"zeppelin-kashmir.mp3":      {"rock", "guitar", "classic"},
		"brubeck-take-five.mp3":     {"jazz", "piano", "classic"},
		"lecture-query-proc.ogg":    {"database", "lecture"},
	}
	i := 0
	for file, words := range corpus {
		if err := indexes[i%n].PublishFile(file, words); err != nil {
			log.Fatal(err)
		}
		if err := floods[i%n].ShareFile(file, words); err != nil {
			log.Fatal(err)
		}
		i++
	}
	time.Sleep(500 * time.Millisecond) // let puts settle

	ctx := context.Background()
	searches := [][]string{
		{"jazz"},
		{"jazz", "piano"},
		{"rock", "guitar"},
		{"jazz", "piano", "live"},
		{"lecture"},
	}
	for _, words := range searches {
		cluster.Net.ResetStats()
		got, err := indexes[0].SearchGet(ctx, words...)
		if err != nil {
			log.Fatal(err)
		}
		dhtMsgs := cluster.Net.Stats().Sent
		fmt.Printf("search %v (DHT gets, %d msgs):\n", words, dhtMsgs)
		for _, f := range got {
			fmt.Printf("  %s\n", f)
		}
		if len(words) == 2 {
			viaJoin, err := indexes[0].SearchJoin(ctx, words[0], words[1])
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  (distributed join agrees: %v)\n", equalStrings(got, viaJoin))
		}
		fmt.Println()
	}

	// Flooding comparison for a single word.
	cluster.Net.ResetStats()
	hits, err := floods[0].Search(ctx, "jazz", 6, 400*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flooding search \"jazz\": %d files, %d network messages\n",
		len(hits), cluster.Net.Stats().Sent)
	cluster.Net.ResetStats()
	if _, err := indexes[0].SearchGet(ctx, "jazz"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DHT search     \"jazz\": %d network messages\n", cluster.Net.Stats().Sent)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
