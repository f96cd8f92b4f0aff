// Package hpcfail is a Go reproduction of Schroeder & Gibson, "A
// large-scale study of failures in high-performance computing systems"
// (DSN 2006): the failure-record data model of the LANL trace, a
// calibrated synthetic trace generator, a from-scratch statistics and
// distribution-fitting stack, the paper's analyses (root causes, failure
// rates, time between failures, time to repair), and a discrete-event
// cluster simulator for the checkpointing and scheduling applications the
// paper motivates.
//
// This package is the public facade: it re-exports, from the internal
// packages, the names external modules use — trace generation and CSV
// I/O, distribution fitting, the paper's analyses, the analysis engine
// and the checkpoint simulator. The subsystems live in internal/ (see
// DESIGN.md for the inventory); the aliases below are the supported
// surface.
//
// Quick start:
//
//	data, err := hpcfail.NewGenerator(hpcfail.GeneratorConfig{Seed: 1}).Generate()
//	...
//	cmp, err := hpcfail.FitAll(data.BySystem(20).PositiveInterarrivals())
//	best, err := cmp.Best() // weibull, shape ~0.7-0.8
package hpcfail

import (
	"hpcfail/internal/analysis"
	"hpcfail/internal/censor"
	"hpcfail/internal/checkpoint"
	"hpcfail/internal/correlate"
	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/hazard"
	"hpcfail/internal/lanl"
	"hpcfail/internal/randx"
	"hpcfail/internal/sim"
	"hpcfail/internal/trend"
)

// ---- Failure records and datasets (internal/failures) ----

// Core data-model types.
type (
	// Dataset is an immutable, time-ordered collection of failure records.
	Dataset = failures.Dataset
	// HWType is the anonymized hardware type label (A–H).
	HWType = failures.HWType
)

// Dataset serialization.
var (
	// WriteCSV and ReadCSV are the trace codec.
	WriteCSV = failures.WriteCSV
	ReadCSV  = failures.ReadCSV
)

// ---- LANL environment and synthetic trace generation (internal/lanl) ----

// GeneratorConfig controls synthetic trace generation; its Workers field
// bounds the generator's worker pool (0 means GOMAXPROCS).
type GeneratorConfig = lanl.Config

// Catalog access and generation.
var (
	// Catalog returns the paper's 22-system Table 1.
	Catalog = lanl.Catalog
	// SystemByID looks up one system.
	SystemByID = lanl.SystemByID
	// NewGenerator builds a trace generator.
	NewGenerator = lanl.NewGenerator
)

// CollectionStart is the start of the LANL data's collection period.
var CollectionStart = lanl.CollectionStart

// ---- Distributions and fitting (internal/dist) ----

// Distribution types.
type (
	// Weibull is the reliability distribution the paper fits to time
	// between failures.
	Weibull = dist.Weibull
	// Family selects a distribution family for fitting.
	Family = dist.Family
)

// Fitting families.
const (
	FamilyExponential = dist.FamilyExponential
	FamilyWeibull     = dist.FamilyWeibull
	FamilyGamma       = dist.FamilyGamma
	FamilyLogNormal   = dist.FamilyLogNormal
)

// Constructors and fitters.
var (
	NewWeibull   = dist.NewWeibull
	NewLogNormal = dist.NewLogNormal

	FitExponential = dist.FitExponential
	FitWeibull     = dist.FitWeibull
	FitGamma       = dist.FitGamma
	FitLogNormal   = dist.FitLogNormal

	// FitAll fits families to a sample and ranks them by negative
	// log-likelihood; with no families it uses the paper's standard four.
	FitAll = dist.FitAll
)

// ---- Hazard estimation (internal/hazard) ----

// HazardDecreasingDir classifies a hazard that falls over time (the
// paper's time-between-failures finding: Weibull shape < 1).
const HazardDecreasingDir = hazard.Decreasing

// Hazard estimators.
var (
	EmpiricalHazard  = hazard.Empirical
	MeanResidualLife = hazard.MeanResidualLife
)

// ---- Censored survival analysis (internal/censor) ----

// CensoredObservation is one (possibly right-censored) lifetime.
type CensoredObservation = censor.Observation

// Censored estimators.
var (
	FitWeibullCensored = censor.FitWeibull
	NodeLifetimes      = censor.NodeLifetimes
)

// ---- Correlation analysis (internal/correlate) ----

// CompareBatchEras computes the fraction of failures in near-simultaneous
// batches before and after an era boundary.
var CompareBatchEras = correlate.CompareEras

// ---- Trend tests (internal/trend) ----

// Trend analyses.
var (
	LaplaceTest = trend.Laplace
	FitPowerLaw = trend.FitPowerLaw
)

// ---- Paper analyses (internal/analysis) ----

// Analysis entry points, one per experiment.
var (
	RootCauseBreakdown  = analysis.RootCauseBreakdown
	DowntimeBreakdown   = analysis.DowntimeBreakdown
	FailureRates        = analysis.FailureRates
	PerNodeCounts       = analysis.PerNodeCounts
	LifecycleCurve      = analysis.LifecycleCurve
	ClassifyLifecycle   = analysis.ClassifyLifecycle
	NewTimeOfDayProfile = analysis.NewTimeOfDayProfile
	Figure6             = analysis.Figure6
	RepairTimeByCause   = analysis.RepairTimeByCause
	RepairTimeFits      = analysis.RepairTimeFits
	RepairTimePerSystem = analysis.RepairTimePerSystem
)

// ---- Concurrent analysis engine (internal/engine) ----

// Engine types.
type (
	// EngineOptions configures worker count, bootstrap replication count,
	// confidence level and base seed.
	EngineOptions = engine.Options
	// ShardSpec controls how a fleet analysis shards the trace and which
	// families it fits.
	ShardSpec = engine.ShardSpec
)

// NewEngine builds an analysis engine; the zero Options give GOMAXPROCS
// workers, 200 bootstrap resamples at the 95% level and seed 0.
var NewEngine = engine.New

// ---- Cluster simulation and checkpointing (internal/sim, internal/checkpoint) ----

// Simulation types.
type (
	// JobConfig describes a checkpointed job.
	JobConfig = sim.JobConfig
	// ClusterConfig configures a simulated cluster (see NewCluster).
	ClusterConfig = sim.ClusterConfig
	// NodeSpec describes one node of a cluster.
	NodeSpec = sim.NodeSpec
	// FirstFitScheduler picks the lowest-numbered idle nodes — the
	// baseline reliability-oblivious policy.
	FirstFitScheduler = sim.FirstFitScheduler
	// CheckpointSimConfig configures checkpoint-interval evaluation.
	CheckpointSimConfig = checkpoint.SimConfig
	// IntervalPolicy chooses checkpoint intervals; FixedPolicy and
	// HazardPolicy are the built-ins.
	IntervalPolicy = checkpoint.IntervalPolicy
	FixedPolicy    = checkpoint.FixedPolicy
	HazardPolicy   = checkpoint.HazardPolicy
)

// Simulation and checkpoint helpers.
var (
	NewCluster = sim.NewCluster
	// ReplayCluster drives the simulator from recorded failure histories
	// instead of fitted models.
	ReplayCluster = sim.ReplayCluster
	// SimulatePolicyEfficiency evaluates adaptive checkpoint policies.
	SimulatePolicyEfficiency = checkpoint.SimulatePolicyEfficiency

	// YoungInterval is the classic closed-form checkpoint interval
	// (memoryless assumption).
	YoungInterval = checkpoint.YoungInterval
	// SimulateEfficiency evaluates an interval under any fitted failure
	// distribution.
	SimulateEfficiency = checkpoint.SimulateEfficiency
)

// NewRandSource returns a deterministic random source for distribution
// sampling.
func NewRandSource(seed int64) *randx.Source { return randx.NewSource(seed) }
