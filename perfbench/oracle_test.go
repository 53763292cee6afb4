package main

import (
	"strings"
	"testing"

	"dmw/internal/mechanism"
	"dmw/internal/sched"
	"dmw/internal/server"
)

// honestView is the view of a done job whose outcome is MinWork's.
func honestView(t *testing.T, bids [][]int) *server.JobView {
	t.Helper()
	in := sched.NewInstance(len(bids), len(bids[0]))
	for i, row := range bids {
		for j, b := range row {
			in.Time[i][j] = int64(b)
		}
	}
	ref, err := mechanism.MinWork{}.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return &server.JobView{
		ID:    "j",
		State: server.StateDone,
		Result: &server.JobResult{
			Schedule:           append([]int(nil), ref.Schedule.Agent...),
			Payments:           append([]int64(nil), ref.Payments...),
			FirstPrice:         append([]int64(nil), ref.FirstPrice...),
			SecondPrice:        append([]int64(nil), ref.SecondPrice...),
			MatchesCentralized: true,
		},
	}
}

func TestOracle(t *testing.T) {
	bids := [][]int{{1, 3}, {2, 1}, {3, 2}, {2, 2}, {1, 3}}
	if err := checkOutcome(bids, honestView(t, bids)); err != nil {
		t.Fatalf("honest outcome rejected: %v", err)
	}
	cases := []struct {
		name   string
		tamper func(v *server.JobView)
		want   string
	}{
		// A wrong payment still has the right winners, so the server's
		// own matches_centralized flag would pass it.
		{"payment", func(v *server.JobView) { v.Result.Payments[1]++ }, "payments"},
		{"winner", func(v *server.JobView) { v.Result.Schedule[1] = 3 }, "schedule"},
		{"first price", func(v *server.JobView) { v.Result.FirstPrice[0] = 2 }, "first prices"},
		{"second price", func(v *server.JobView) { v.Result.SecondPrice[0] = 3 }, "second prices"},
		{"aborted", func(v *server.JobView) { v.Result.AbortedTasks = []int{1} }, "aborted"},
		{"failed", func(v *server.JobView) { v.State, v.Result = server.StateFailed, nil }, "state failed"},
		{"running", func(v *server.JobView) { v.State = server.StateRunning }, "state running"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := honestView(t, bids)
			c.tamper(v)
			err := checkOutcome(bids, v)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("tampered %s: got %v, want an error about %q", c.name, err, c.want)
			}
		})
	}
}
