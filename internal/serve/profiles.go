package serve

import "fmt"

// Named chaos profiles: reusable presets of the adversarial failure
// mix, so scenario declarations and command-line flags can select a
// calibrated level of chaos instead of hand-tuning four rates. "none"
// disables the chaos layer (the SEU campaign, if configured, still
// runs); "light" exercises every failure path at rates the retry
// budget absorbs comfortably; "heavy" is the adversarial mix (kills,
// wedges and SEU storms every few dozen batch runs).

// ChaosProfiles lists the named chaos presets in escalation order.
func ChaosProfiles() []string { return []string{"none", "light", "heavy"} }

// ChaosProfile resolves a named chaos preset.
func ChaosProfile(name string) (ChaosConfig, error) {
	switch name {
	case "none":
		return ChaosConfig{}, nil
	case "light":
		return ChaosConfig{KillRate: 0.01, HangRate: 0.01, StormRate: 0.02, StormSize: 2}, nil
	case "heavy":
		return ChaosConfig{KillRate: 0.02, HangRate: 0.02, StormRate: 0.05, StormSize: 4}, nil
	}
	return ChaosConfig{}, fmt.Errorf("serve: unknown chaos profile %q (have %v)", name, ChaosProfiles())
}
