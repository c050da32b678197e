package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	m := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "http.segment", Start: 0, End: 100 * m},
		{ID: 2, Parent: 1, Name: spanCoreSeg, Start: 110 * m, End: 130 * m},  // 20 ms replay
		{ID: 3, Parent: 2, Name: spanClosure, Start: 130 * m, End: 135 * m},  // 5 ms, a grandchild of 1
		{ID: 4, Parent: 2, Name: spanVC2, Start: 135 * m, End: 147 * m},      // 12 ms
		{ID: 5, Parent: 1, Name: spanSegHit, Start: 150 * m, End: 160 * m},   // 10 ms
		{ID: 6, Name: "http.query", Start: 0, End: 1 * m},                    // child longer than parent
		{ID: 7, Parent: 6, Name: spanCypher, Start: 2 * m, End: 5 * m},       //
		{ID: 8, Parent: 4, Name: spanPsgNodes, Start: 150 * m, End: 150 * m}, // zero-length mark
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 70 * time.Millisecond, // 100 - 20 - 10: grandchildren are not subtracted twice
		2: 3 * time.Millisecond,  // induce: 20 - 5 - 12
		3: 5 * time.Millisecond,
		4: 12 * time.Millisecond,
		5: 10 * time.Millisecond,
		6: 0, // floored
		7: 3 * time.Millisecond,
		8: 0,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	if got := byName(spans, spanCoreSeg, func(s span) float64 { return ms(self[s.ID]) }); len(got) != 1 || got[0] != 3 {
		t.Errorf("induce by name = %v, want [3]", got)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	root := tr.timed("http.segment", "r1", 0, func() float64 { return 7 })
	tr.mark("core.psg_nodes", "r1", root, 3)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].Value != 7 || spans[1].ReqID != "r1" {
		t.Fatalf("spans %+v", spans)
	}
	if spans[1].dur() != 0 {
		t.Errorf("mark has duration %v", spans[1].dur())
	}
}

func TestCachedReply(t *testing.T) {
	if !cachedReply([]byte(`{"num_vertices":3,"vertices":[1,2,3],"cached":true}`)) {
		t.Error("cached reply not recognized")
	}
	if cachedReply([]byte(`{"num_vertices":3,"cached":false}`)) {
		t.Error("uncached reply taken for cached")
	}
}
