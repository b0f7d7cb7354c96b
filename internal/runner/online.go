package runner

import (
	"fmt"
	"math"

	"bytescheduler/internal/autotune"
)

// OnlineConfig drives runtime auto-tuning: the paper's actual deployment
// mechanism (§4.3, §5), where worker 0's Core profiles the training speed
// of candidate (partition, credit) configurations on the live job. The
// simulated job is tuned by the same autotune.Controller that tunes live
// runs, driven in virtual time.
type OnlineConfig struct {
	// Config is the training setup; its Policy provides the starting
	// partition/credit values and Iterations is ignored (derived from the
	// window schedule below).
	Config
	// WindowIters is the number of clean iterations profiled per
	// configuration (the controller's DwellIters).
	WindowIters int
	// Trials is the number of tuner proposals to evaluate.
	Trials int
	// FinalWindows is the number of windows run at the adopted
	// configuration after the search completes, whose speed is reported
	// as FinalSpeed.
	FinalWindows int
	// TuneSeed seeds the tuner (the controller's Seed).
	TuneSeed int64
	// RestartPenalty models the PS-mode checkpoint-restart cost paid on
	// every partition-size change (§5: ~5-9 s per restart); the penalty is
	// accounted in TuningOverhead rather than simulated. All-reduce
	// adjusts knobs live and pays nothing.
	RestartPenalty float64
}

// WindowSample is one profiled configuration.
type WindowSample struct {
	// Window is the 0-based profiling window index.
	Window int
	// Partition and Credit are the active knob values, in bytes.
	Partition, Credit int64
	// Speed is the measured training speed over the window.
	Speed float64
}

// OnlineResult summarizes an online-tuned run.
type OnlineResult struct {
	// Windows are the profiled samples in order.
	Windows []WindowSample
	// BestPartition/BestCredit are the tuner's final choice.
	BestPartition, BestCredit int64
	// FirstWindowSpeed is the speed at the starting configuration;
	// FinalSpeed the speed at the tuned configuration (averaged over the
	// final windows).
	FirstWindowSpeed, FinalSpeed float64
	// Restarts counts partition-size changes (PS restarts);
	// TuningOverhead is Restarts*RestartPenalty seconds.
	Restarts       int
	TuningOverhead float64
}

// RunOnlineTuned executes one simulated training job while tuning partition
// and credit sizes on the fly. Unlike Tune-by-replay (SpeedWithParams),
// every sample here comes from a window of the same continuous run, with
// compute jitter noise if configured — the regime Bayesian Optimization's
// noise resilience is for. At each iteration boundary the engine feeds the
// controller the finished iteration's virtual duration and applies the
// configuration it pins for the next one.
func RunOnlineTuned(oc OnlineConfig) (OnlineResult, error) {
	cfg := oc.Config.withDefaults()
	if oc.WindowIters <= 0 {
		oc.WindowIters = 5
	}
	if oc.Trials <= 0 {
		oc.Trials = 10
	}
	if oc.FinalWindows <= 0 {
		oc.FinalWindows = 2
	}
	if !cfg.Scheduled || cfg.Policy.PartitionUnit <= 0 {
		return OnlineResult{}, fmt.Errorf("runner: online tuning needs a scheduled, partitioned starting policy")
	}
	start := autotune.Setting{Partition: cfg.Policy.PartitionUnit, Credit: cfg.Policy.CreditBytes}
	if start.Credit == 0 {
		// Credit 0 is an unlimited window; the controller wants a number.
		start.Credit = math.MaxInt64
	}
	const warmup = 1 // iteration 0 starts with an idle network
	ctrl, err := autotune.New(start, autotune.Config{
		Seed:        oc.TuneSeed,
		WarmupIters: warmup,
		DwellIters:  oc.WindowIters,
		Trials:      oc.Trials,
	})
	if err != nil {
		return OnlineResult{}, err
	}
	// The baseline window, then every probe (and at most one guarded
	// re-validation) after its transition iteration, then the final
	// windows at the adopted config; +1 for the boundary that closes the
	// last window.
	d := oc.WindowIters
	cfg.Iterations = warmup + d + (oc.Trials+1)*(d+1) + 1 + oc.FinalWindows*d + 1
	cfg.Warmup = 0

	var (
		res  OnlineResult
		inst *instance
		prev float64
		cur  = start
	)
	engCfg := engineConfig(cfg)
	engCfg.OnIteration = func(iter int, at float64) {
		if iter > 0 {
			ctrl.ObserveIteration(iter-1, at-prev)
		}
		prev = at
		s := ctrl.ConfigFor(iter)
		if s == cur {
			return
		}
		if s.Partition != cur.Partition {
			res.Restarts++
		}
		cur = s
		inst.setParams(s.Partition, s.Credit)
	}
	if inst, err = build(cfg, engCfg); err != nil {
		return OnlineResult{}, err
	}
	inst.eng.Start()
	inst.se.Run()

	rep := ctrl.Report()
	samplesPerIter := float64(cfg.Model.BatchPerGPU) * float64(cfg.GPUs)
	var sum float64
	n := 0
	for i, dec := range rep.Decisions {
		speed := dec.Speed * samplesPerIter
		res.Windows = append(res.Windows, WindowSample{
			Window: i, Partition: dec.Setting.Partition, Credit: dec.Setting.Credit, Speed: speed,
		})
		switch dec.Action {
		case "baseline":
			res.FirstWindowSpeed = speed
		case "steady", "regressing":
			sum += speed
			n++
		}
	}
	if n == 0 {
		return OnlineResult{}, fmt.Errorf("runner: no final windows recorded (windows=%d)", len(res.Windows))
	}
	res.FinalSpeed = sum / float64(n)
	res.BestPartition, res.BestCredit = rep.Best.Partition, rep.Best.Credit
	if res.BestCredit == math.MaxInt64 {
		res.BestCredit = 0
	}
	if cfg.Arch == PS {
		res.TuningOverhead = float64(res.Restarts) * oc.RestartPenalty
	}
	return res, nil
}
