"""Timed wrappers around the calls into each s3ribp layer, for the traced run.

The traced run replaces named attributes of the program's modules and
classes with wrappers that time each call and take a few counts at the same
boundary.  Nothing under ``src/`` changes, and no wrapper draws a random
number, so a traced chain follows the untraced trajectory bit for bit.  A
name the program no longer has is recorded as absent and skipped, so a later
rename costs that metric and not the run.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Totals of calls and seconds per (phase, span), plus counts per (phase, key).

    The benchmark sets the current phase; a span is one named layer entry
    point.  Totals are inclusive: a span nested in another (the ESP routine
    inside the pi stage) counts in both.  A span nested in itself counts
    once, at the outer call.
    """

    def __init__(self):
        self.phase = None
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.absent = set()
        self._active = set()
        self._patches = []

    @contextmanager
    def in_phase(self, phase):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def total(self, phase, span):
        """(calls, seconds) of a span in a phase; None if the span is absent."""
        if span in self.absent:
            return None
        return self.calls[(phase, span)], self.seconds[(phase, span)]

    def count(self, phase, key):
        return None if key in self.absent else self.counts[(phase, key)]

    def wrap(self, owner, attr, span, probe=None):
        """Replace ``owner.attr`` with a timed wrapper until ``restore``.

        ``probe(args, before)`` is called twice around each call, first with
        ``before=None``; what the first call returns (never None) is passed
        to the second, which returns a dict of counts to add.  A probe that
        meets a renamed private attribute marks its counts absent.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.absent.add(span)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span in tracer._active:
                return original(*args, **kwargs)
            token = tracer._probe(probe, args, None)
            tracer._active.add(span)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._active.discard(span)
                key = (tracer.phase, span)
                tracer.seconds[key] += time.perf_counter() - t0
                tracer.calls[key] += 1
                if token is not None:
                    for name, value in (tracer._probe(probe, args, token) or {}).items():
                        tracer.counts[(tracer.phase, name)] += value

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _probe(self, probe, args, token):
        if probe is None:
            return None
        try:
            return probe(args, token)
        except AttributeError:
            self.absent.update(probe.keys)
            return None

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _keys(*names):
    def mark(fn):
        fn.keys = names
        return fn

    return mark


@_keys("z_flips", "kplus")
def _z_probe(args, before):
    z = args[0]._z
    if before is None:
        return z.copy()
    return {"z_flips": int((z != before).sum()), "kplus": int(z.any(axis=0).sum())}


@_keys("pi_accepted", "pi_proposed")
def _pi_probe(args, before):
    pi = args[0]._pi
    if before is None:
        return pi.copy()
    return {"pi_accepted": int((pi != before).sum()), "pi_proposed": int(pi.shape[0])}


@_keys("checkpoint_bytes")
def _checkpoint_probe(args, before):
    if before is None:
        return True
    return {"checkpoint_bytes": os.path.getsize(args[1])}


def install(tracer, s3ribp):
    """Wrap every layer entry point the per-layer metrics read."""
    runner = s3ribp.ChainRunner
    mcmc = s3ribp.mcmc
    for attr, span in (
        ("load_counts", "io.read"),
        ("load_raw_matrix", "io.read"),
        ("make_splits", "io.make_splits"),
        ("rca_transform", "model.preprocess"),
        ("save_summary", "io.save_summary"),
        ("load_summary", "io.load_summary"),
        ("log_perplexity", "evaluate.log_perplexity"),
        ("baseline_row_mean_log_perplexity", "evaluate.baseline"),
        ("live_features", "evaluate.topics"),
        ("top_features", "evaluate.topics"),
        ("umass_coherence", "evaluate.coherence"),
        ("qq_row_nonzeros", "evaluate.qq"),
        ("binomial_baseline_qq", "evaluate.qq"),
    ):
        tracer.wrap(s3ribp, attr, span)
    # the model layer's count validation, which every loader and rca_transform
    # end in; inside rca_transform it counts as part of that call
    tracer.wrap(s3ribp.model.CountMatrix, "__post_init__", "model.preprocess")
    # the names as mcmc looks them up, so calls made inside the chain count
    tracer.wrap(mcmc, "levy_exposure_mass", "priors.exposure_mass")
    tracer.wrap(mcmc, "_log_esp_from_logw", "condbern.esp")
    for attr, span, probe in (
        ("__init__", "mcmc.runner_init", None),
        ("_sweep_z_internal", "mcmc.z_sweep", _z_probe),
        ("_mh_pi_internal", "mcmc.pi_mh", _pi_probe),
        ("_refresh_aux_internal", "mcmc.aux_split", None),
        ("_update_b_internal", "mcmc.b_draw", None),
        ("_update_alpha_internal", "mcmc.alpha_draw", None),
        ("_validate_internal", "mcmc.invariant_check", None),
        ("_maybe_retain", "mcmc.retain", None),
        ("save_checkpoint", "io.checkpoint_write", _checkpoint_probe),
    ):
        tracer.wrap(runner, attr, span, probe)
