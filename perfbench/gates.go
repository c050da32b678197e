package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/server"
)

// checkReads sends each read to the leader's default store and checks the
// response against a direct evaluation on the same epoch: segment vertex
// and edge ids against core.NewEngine(ep.P, core.Options{}), summary node
// and edge counts against core.Summarize over the same segments, query
// rows against Store.Cypher. The store must not be written meanwhile.
func checkReads(d *deployment, reads []*readReq) error {
	st := d.leader(server.DefaultStore)
	hc := httpClient()
	defer hc.CloseIdleConnections()
	for _, r := range reads {
		ep := st.Epoch()
		method := http.MethodPost
		if r.body == nil {
			method = http.MethodGet
		}
		status, _, data, _, err := send(hc, method, d.url+r.path, r.body, "", true)
		if err != nil {
			return fmt.Errorf("gate %s: %w", r.endpoint, err)
		}
		if !ok2xx(status) {
			return fmt.Errorf("gate %s %s: status %d: %s", r.endpoint, r.body, status, data)
		}
		if st.Epoch() != ep {
			return fmt.Errorf("gate %s: store was written during the check", r.endpoint)
		}
		switch r.endpoint {
		case epSegment:
			err = checkSegment(ep, r.seg, data)
		case epSummarize:
			err = checkSummary(ep, r.sum, data)
		case epQuery:
			err = checkQuery(st, r.query, data)
		}
		if err != nil {
			return fmt.Errorf("gate %s %s: %w", r.endpoint, r.body, err)
		}
	}
	return nil
}

func checkSegment(ep *server.Epoch, s segSpec, data []byte) error {
	var resp server.SegmentResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	want, err := core.NewEngine(ep.P, core.Options{}).Segment(toQuery(s))
	if err != nil {
		return err
	}
	gotV := make([]graph.VertexID, len(resp.Vertices))
	for i, v := range resp.Vertices {
		gotV[i] = graph.VertexID(v.ID)
	}
	gotE := make([]graph.EdgeID, len(resp.Edges))
	for i, e := range resp.Edges {
		gotE[i] = graph.EdgeID(e.ID)
	}
	if resp.NumVertices != len(want.Vertices) || !equalIDs(gotV, want.Vertices) {
		return fmt.Errorf("vertices differ: served %d, engine %d", resp.NumVertices, len(want.Vertices))
	}
	if resp.NumEdges != len(want.Edges) || !equalIDs(gotE, want.Edges) {
		return fmt.Errorf("edges differ: served %d, engine %d", resp.NumEdges, len(want.Edges))
	}
	return nil
}

func equalIDs[T comparable](a, b []T) bool {
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

func checkSummary(ep *server.Epoch, specs []segSpec, data []byte) error {
	var resp server.SummarizeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	eng := core.NewEngine(ep.P, core.Options{})
	segs := make([]*core.Segment, len(specs))
	for i, s := range specs {
		seg, err := eng.Segment(toQuery(s))
		if err != nil {
			return err
		}
		segs[i] = seg
	}
	want, err := core.Summarize(segs, core.SumOptions{})
	if err != nil {
		return err
	}
	if len(resp.Nodes) != len(want.Nodes) || len(resp.Edges) != len(want.Edges) {
		return fmt.Errorf("summary differs: served %d nodes/%d edges, core.Summarize %d/%d",
			len(resp.Nodes), len(resp.Edges), len(want.Nodes), len(want.Edges))
	}
	return nil
}

func checkQuery(st *server.Store, query string, data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var resp struct {
		NumRows int     `json:"num_rows"`
		Rows    [][]any `json:"rows"`
	}
	if err := dec.Decode(&resp); err != nil {
		return err
	}
	want, err := st.Cypher(query, cypher.Options{})
	if err != nil {
		return err
	}
	if resp.NumRows != len(want.Rows) || len(resp.Rows) != len(want.Rows) {
		return fmt.Errorf("served %d rows, Store.Cypher %d", resp.NumRows, len(want.Rows))
	}
	for i, row := range want.Rows {
		if len(row) != len(resp.Rows[i]) {
			return fmt.Errorf("row %d: served %d cells, Store.Cypher %d", i, len(resp.Rows[i]), len(row))
		}
		for j, v := range row {
			if got, w := cellKey(resp.Rows[i][j]), valueKey(v); got != w {
				return fmt.Errorf("row %d cell %d: served %s, Store.Cypher %s", i, j, got, w)
			}
		}
	}
	return nil
}

// valueKey and cellKey render a Cypher value and its JSON encoding to the
// same string when they name the same vertices, edges, paths or scalars.
func valueKey(v cypher.Value) string {
	switch v.Kind {
	case cypher.KindVertex:
		return fmt.Sprintf("v%d", v.V)
	case cypher.KindEdge:
		return fmt.Sprintf("e%d", v.E)
	case cypher.KindPath:
		return fmt.Sprintf("p%v%v", v.P.Verts, v.P.Edges)
	case cypher.KindList:
		parts := make([]string, len(v.L))
		for i, x := range v.L {
			parts[i] = valueKey(x)
		}
		return "[" + strings.Join(parts, " ") + "]"
	case cypher.KindString:
		return "s" + v.S
	case cypher.KindInt:
		return fmt.Sprintf("i%d", v.I)
	case cypher.KindBool:
		return fmt.Sprintf("b%v", v.B)
	}
	return "null"
}

func cellKey(c any) string {
	switch c := c.(type) {
	case map[string]any:
		switch {
		case c["verts"] != nil:
			return fmt.Sprintf("p%v%v", c["verts"], c["edges"])
		case c["src"] != nil:
			return fmt.Sprintf("e%v", c["id"])
		default:
			return fmt.Sprintf("v%v", c["id"])
		}
	case []any:
		parts := make([]string, len(c))
		for i, x := range c {
			parts[i] = cellKey(x)
		}
		return "[" + strings.Join(parts, " ") + "]"
	case string:
		return "s" + c
	case json.Number:
		return "i" + c.String()
	case bool:
		return fmt.Sprintf("b%v", c)
	}
	return "null"
}

// checkReplicas waits for the follower to catch up, then requires every
// store's follower epoch and vertex/edge counts to equal the leader's,
// with no residual lag.
func checkReplicas(d *deployment) error {
	if err := d.caughtUp(lagTimeout); err != nil {
		return err
	}
	for _, name := range storeNames {
		fst, err := d.follower(name)
		if err != nil {
			return err
		}
		if l, f := stateOf(d.leader(name)), stateOf(fst); l != f {
			return fmt.Errorf("store %q: leader %+v, follower %+v", name, l, f)
		}
		if rs := fst.ReplStatsSnapshot(); rs == nil || rs.LagRecords != 0 {
			return fmt.Errorf("store %q: follower reports residual lag %+v", name, rs)
		}
	}
	return nil
}

// checkRecovery closes the leader, reopens its data directory, and
// requires every store to recover the state it had at close, which
// includes every acknowledged epoch.
func checkRecovery(d *deployment, acked map[string]uint64) error {
	before := map[string]storeState{}
	for _, name := range storeNames {
		before[name] = stateOf(d.leader(name))
	}
	after, err := d.reopen()
	if err != nil {
		return err
	}
	for _, name := range storeNames {
		if after[name] != before[name] {
			return fmt.Errorf("store %q: had %+v at close, recovered %+v", name, before[name], after[name])
		}
		if after[name].Epoch < acked[name] {
			return fmt.Errorf("store %q: acknowledged epoch %d, recovered %d", name, acked[name], after[name].Epoch)
		}
	}
	return nil
}
