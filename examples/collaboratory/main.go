// Command collaboratory demonstrates the social-data-analysis scenario of
// §2.3: a science collaboratory where a community shares workflows and
// provenance, searches them, receives recommendations, and queries lineage
// over HTTP — the components the paper argues SDA sites for science need.
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/store"
)

func main() {
	repo := collab.NewRepository(store.NewMemStore())

	// Synthesize a community: 15 users publishing 3 runs each over the
	// five base pipelines, with preferential attachment.
	users, err := collab.SynthesizeCommunity(repo, collab.CommunityOptions{
		Seed: 2008, Users: 15, RunsEach: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := repo.Stat()
	fmt.Printf("collaboratory: %d workflows, %d published runs, %d users\n\n",
		st.Workflows, st.Runs, st.Users)

	// Full-text search over names, descriptions, tags, module types.
	fmt.Println("search 'visualization':")
	for _, hit := range repo.Search("visualization", 5) {
		e, err := repo.Peek(hit.WorkflowID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s score=%.2f  %s\n", hit.WorkflowID, hit.Score, e.Description)
	}

	// Recommendation by collaborative filtering over run histories.
	fmt.Println("\nrecommendations:")
	shown := 0
	for _, u := range users {
		recs := repo.Recommend(u, 2)
		if len(recs) == 0 {
			continue
		}
		fmt.Printf("  %s -> ", u)
		for _, r := range recs {
			fmt.Printf("%s (%.2f) ", r.WorkflowID, r.Score)
		}
		fmt.Println()
		shown++
		if shown == 5 {
			break
		}
	}

	// The HTTP face: cmd/provd serves exactly this handler; here we use a
	// test server so the example is self-contained.
	srv := httptest.NewServer(collab.NewHandler(repo))
	defer srv.Close()

	client := api.NewClient(srv.URL, nil)

	fmt.Println("\nHTTP API:")
	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  GET /v1/stats -> %+v\n", stats)

	// Lineage of a shared run's final artifact, over the wire.
	runs := repo.RunsOf("medimg")
	if len(runs) == 0 {
		runs = repo.RunsOf("medimg-smooth")
	}
	if len(runs) > 0 {
		l, err := repo.Store().RunLog(runs[0])
		if err != nil {
			log.Fatal(err)
		}
		target := l.Artifacts[len(l.Artifacts)-1].ID
		lineage, err := client.Lineage(target)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  GET /v1/lineage?id=%s -> %d upstream entities\n", target, len(lineage))
	}

	// PQL across every run anyone published.
	qres, err := client.Query("SELECT moduleType, status FROM executions WHERE status = 'failed'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  GET /v1/query (failed executions) -> %d rows\n", len(qres.Rows))
}
