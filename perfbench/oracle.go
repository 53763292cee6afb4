package main

import (
	"fmt"
	"slices"

	"dmw/internal/mechanism"
	"dmw/internal/sched"
	"dmw/internal/server"
)

// checkOutcome compares a job's reported outcome with the centralized
// MinWork mechanism run on the bids the benchmark sent. DMW must
// reproduce MinWork exactly (Theorem 4): winners, per-agent payments and
// both auction prices. A job that is not done, aborted any task or
// differs anywhere is an error.
func checkOutcome(bids [][]int, v *server.JobView) error {
	if v == nil {
		return fmt.Errorf("no job view")
	}
	if v.State != server.StateDone {
		return fmt.Errorf("job %s state %s %s", v.ID, v.State, v.Error)
	}
	r := v.Result
	if r == nil {
		return fmt.Errorf("job %s done without a result", v.ID)
	}
	if len(r.AbortedTasks) > 0 {
		return fmt.Errorf("job %s aborted tasks %v", v.ID, r.AbortedTasks)
	}
	in := sched.NewInstance(len(bids), len(bids[0]))
	for i, row := range bids {
		for j, b := range row {
			in.Time[i][j] = int64(b)
		}
	}
	ref, err := mechanism.MinWork{}.Run(in)
	if err != nil {
		return fmt.Errorf("job %s: reference: %v", v.ID, err)
	}
	switch {
	case !slices.Equal(r.Schedule, ref.Schedule.Agent):
		return fmt.Errorf("job %s schedule %v, MinWork %v", v.ID, r.Schedule, ref.Schedule.Agent)
	case !slices.Equal(r.Payments, ref.Payments):
		return fmt.Errorf("job %s payments %v, MinWork %v", v.ID, r.Payments, ref.Payments)
	case !slices.Equal(r.FirstPrice, ref.FirstPrice):
		return fmt.Errorf("job %s first prices %v, MinWork %v", v.ID, r.FirstPrice, ref.FirstPrice)
	case !slices.Equal(r.SecondPrice, ref.SecondPrice):
		return fmt.Errorf("job %s second prices %v, MinWork %v", v.ID, r.SecondPrice, ref.SecondPrice)
	}
	return nil
}
