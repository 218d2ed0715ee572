package core

import "time"

// ProjectedCost exposes the precision controller's estimate of what one
// precise update to target would cost right now (deadline.go projectNS),
// so tests can size a budget relative to it instead of to the clock.
func ProjectedCost(s *Specializer, target string) time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return time.Duration(s.projectNS(target, len(s.An.PointsOf(target))))
}
