package faults

import "repro/internal/storage"

// CheckCrashOn is CheckCrash on a device of the given medium.
func CheckCrashOn(medium storage.Medium, cfg CheckConfig, sub Subject) CheckResult {
	return checkCrash(cfg, sub, medium)
}
