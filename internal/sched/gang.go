package sched

// Gang scheduling (extension policy): instead of letting every resident
// job's processes time-share node-by-node with job-fair quanta (the paper's
// RR-job), the partition scheduler coschedules — exactly one job's
// processes are runnable at a time across the whole partition, and the
// active job rotates every basic quantum. Processes of inactive jobs are
// suspended through the local schedulers' preemption control
// (machine.Task.Suspend), which preserves their remaining CPU demand.
//
// The job-switch overhead is charged by the CPUs' group-switch accounting
// when the newly active job's processes are dispatched, the same mechanism
// the RR-job policy pays.

// gangJoin registers a loaded job in its partition's rotation. The first
// resident job becomes active; later arrivals start suspended and wait for
// their slot.
func (s *System) gangJoin(part *Partition, js *jobState) {
	part.gangJobs = append(part.gangJobs, js)
	if len(part.gangJobs) == 1 {
		part.gangIdx = 0
		return // sole job: runs unsuspended, no rotation needed
	}
	s.gangSetSuspended(js, true)
	s.gangArm(part)
}

// gangLeave removes a completed job from the rotation and advances the
// active slot if necessary.
func (s *System) gangLeave(part *Partition, js *jobState) {
	idx := -1
	for i, g := range part.gangJobs {
		if g == js {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	wasActive := idx == part.gangIdx
	part.gangJobs = append(part.gangJobs[:idx], part.gangJobs[idx+1:]...)
	if len(part.gangJobs) == 0 {
		part.gangIdx = 0
		s.gangDisarm(part)
		return
	}
	if idx < part.gangIdx {
		part.gangIdx--
	}
	if part.gangIdx >= len(part.gangJobs) {
		part.gangIdx = 0
	}
	if wasActive {
		// Hand the partition to the next job immediately.
		s.gangSetSuspended(part.gangJobs[part.gangIdx], false)
	}
	if len(part.gangJobs) < 2 {
		s.gangDisarm(part)
	}
}

// gangRotate suspends the active job and resumes the next one.
func (s *System) gangRotate(part *Partition) {
	if len(part.gangJobs) < 2 {
		return
	}
	s.gangSetSuspended(part.gangJobs[part.gangIdx], true)
	part.gangIdx = (part.gangIdx + 1) % len(part.gangJobs)
	s.gangSetSuspended(part.gangJobs[part.gangIdx], false)
	s.gangArm(part)
}

// gangArm schedules the next rotation if one is due and not already armed.
func (s *System) gangArm(part *Partition) {
	if len(part.gangJobs) < 2 {
		return
	}
	if part.gangTimer == nil {
		part.gangTimer = s.k.NewTimer(func() { s.gangRotate(part) })
	}
	if !part.gangTimer.Pending() {
		part.gangTimer.Reset(s.k.Now() + s.cfg.BasicQuantum)
	}
}

// gangDisarm cancels any pending rotation.
func (s *System) gangDisarm(part *Partition) {
	if part.gangTimer != nil {
		part.gangTimer.Stop()
	}
}

// gangSetSuspended flips every task of the job.
func (s *System) gangSetSuspended(js *jobState, suspended bool) {
	for _, b := range js.env.Ranks {
		if suspended {
			b.Task.Suspend()
		} else {
			b.Task.Resume()
		}
	}
}
