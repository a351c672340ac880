"""Bench impact characterization and velocity governing for small UAS.

The package turns benchtop drone-impact trials (force plate + range
finder) into per-airframe contact models, and uses those models to cap
flight velocity commands so that predicted impact forces near people
stay under configurable body-region limits.  A built-in kinematic
simulation closes the loop for validation.

Typical flow, one module per stage::

    raw = ingest.load_trial("trial_000.json")
    record = ingest.align_streams(raw)
    metrics = impact.summarize_trial(record)
    summary = impact.aggregate_configuration([...])
    profile = fit.build_airframe_profile([...])
    runtime = governor.GovernorRuntime(governor.GovernorConfig(), profile)

Import the stage modules directly.  The package itself loads none of
them, so ``profile``, ``governor``, ``stream`` and ``sim`` run without
numpy or scipy and without the analysis stages.  The CLI
(``impact-governor``) wraps the same steps; see the README.
"""

__version__ = "0.1.0"
