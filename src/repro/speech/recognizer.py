"""DTW template keyword recogniser.

Stands in for the victim device's speech recogniser (Google Assistant /
Alexa). Templates are MFCC matrices of enrolled commands; an incoming
recording is trimmed, featurised and matched against every template
with dynamic time warping under a Sakoe-Chiba band. The best-scoring
command wins if its normalised distance clears the acceptance
threshold, otherwise the recogniser rejects ("not understood" — the
outcome an attack at excessive range produces).

This recogniser is simple but *real*: its accuracy falls smoothly as
noise, reverberation and demodulation distortion grow, which is the
property every accuracy-vs-distance figure in the evaluation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.signals import Signal
from repro.speech.features import MfccConfig, MfccExtractor
from repro.speech.vad import trim_silence
from repro.errors import RecognitionError


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of one recognition attempt.

    Attributes
    ----------
    accepted:
        Whether any command cleared the acceptance threshold.
    command:
        Best-matching command name (set even when rejected, for
        diagnostics).
    distance:
        Normalised DTW distance of the best match (lower = better).
    distances:
        Every command's normalised distance, for margin analyses.
    """

    accepted: bool
    command: str
    distance: float
    distances: dict[str, float] = field(repr=False)

    def margin(self) -> float:
        """Distance gap between the best and second-best commands.

        Larger margins mean a more confident decision; experiments use
        this to study how distance erodes confidence before it breaks
        accuracy.
        """
        ordered = sorted(self.distances.values())
        if len(ordered) < 2:
            return float("inf")
        return float(ordered[1] - ordered[0])


class KeywordRecognizer:
    """Enroll commands, then recognise recordings.

    Parameters
    ----------
    acceptance_threshold:
        Maximum normalised DTW distance accepted as a successful
        recognition. Calibrated default suits the bundled MFCC recipe;
        the threshold is exposed because the defense experiments sweep
        it.
    band_fraction:
        Sakoe-Chiba band half-width as a fraction of the longer
        sequence, constraining pathological warps.
    mfcc:
        Feature front-end configuration.
    """

    #: Canonical feature-extraction rate. Every input — template or
    #: query, whatever device rate it arrives at — is resampled here
    #: first, so features are always comparable. 16 kHz matches real
    #: ASR front-ends, which keep only the sub-8 kHz band.
    CANONICAL_RATE_HZ = 16000.0

    def __init__(
        self,
        acceptance_threshold: float = 3.0,
        band_fraction: float = 0.2,
        mfcc: MfccConfig | None = None,
    ) -> None:
        if acceptance_threshold <= 0:
            raise RecognitionError(
                "acceptance_threshold must be positive, got "
                f"{acceptance_threshold}"
            )
        if not 0 < band_fraction <= 1:
            raise RecognitionError(
                f"band_fraction must be in (0, 1], got {band_fraction}"
            )
        self.acceptance_threshold = acceptance_threshold
        self.band_fraction = band_fraction
        self._extractor = MfccExtractor(mfcc)
        self._templates: dict[str, list[np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------
    def enroll(self, command: str, recording: Signal) -> None:
        """Add a template recording for a command.

        Multiple enrollments per command are supported; recognition
        scores against the closest template.
        """
        features = self._featurize(recording)
        self._templates.setdefault(command, []).append(features)

    def enroll_multi_condition(
        self,
        command: str,
        recording: Signal,
        rng: np.random.Generator,
        noise_levels: tuple[float, ...] = (0.05, 0.3),
    ) -> None:
        """Enroll a clean template plus noise-corrupted variants.

        Commercial recognisers are trained on noisy data and are far
        more robust than a single clean template; this helper gives the
        DTW recogniser the same property (one clean template plus one
        per noise level, each level an RMS fraction of the clean
        signal's RMS).
        """
        from repro.dsp.signals import white_noise

        self.enroll(command, recording)
        for level in noise_levels:
            if level <= 0:
                raise RecognitionError(
                    f"noise levels must be positive, got {level}"
                )
            noise = white_noise(
                recording.duration,
                recording.sample_rate,
                rng,
                rms_level=level * recording.rms(),
                unit=recording.unit,
            ).padded_to(recording.n_samples)
            self.enroll(command, recording + noise)

    @property
    def commands(self) -> list[str]:
        """Enrolled command names, sorted."""
        return sorted(self._templates)

    # ------------------------------------------------------------------
    # Recognition
    # ------------------------------------------------------------------
    def recognize(self, recording: Signal) -> RecognitionResult:
        """Match a recording against every enrolled command."""
        if not self._templates:
            raise RecognitionError(
                "no commands enrolled; call enroll() before recognize()"
            )
        features = self._featurize(recording)
        distances = {}
        for command, templates in self._templates.items():
            best = min(
                self._dtw_distance(features, template)
                for template in templates
            )
            distances[command] = best
        best_command = min(distances, key=distances.get)
        best_distance = distances[best_command]
        return RecognitionResult(
            accepted=best_distance <= self.acceptance_threshold,
            command=best_command,
            distance=best_distance,
            distances=distances,
        )

    def recognize_batch(
        self, recordings: list[Signal]
    ) -> list[RecognitionResult]:
        """Match a stack of equal-length recordings against every command.

        The batched counterpart of :meth:`recognize` for the vectorized
        trial kernel. Every (recording, template) pair is scored by one
        anti-diagonal sweep over a stacked DP tensor
        (:meth:`_dtw_distance_batch`), instead of one Python-level DTW
        per pair; entry ``i`` of the result is bitwise identical to
        ``recognize(recordings[i])`` — same local costs, same step
        rule, same tie-breaking.
        """
        if not self._templates:
            raise RecognitionError(
                "no commands enrolled; call enroll() before recognize()"
            )
        if not recordings:
            return []
        from repro.dsp.resample import resample_array

        # One polyphase resample over the whole stack (rows are bitwise
        # identical to per-recording resample, including the rates-
        # already-match short circuit); silence trimming and MFCC
        # extraction stay per row because trim lengths differ.
        source_rate = recordings[0].sample_rate
        if any(r.sample_rate != source_rate for r in recordings):
            raise RecognitionError(
                "recognize_batch expects one common sample rate"
            )
        stack = np.stack([r.samples for r in recordings])
        if abs(self.CANONICAL_RATE_HZ - source_rate) < 1e-9:
            canonical, rate = stack, source_rate
        else:
            canonical = resample_array(
                stack, source_rate, self.CANONICAL_RATE_HZ
            )
            rate = self.CANONICAL_RATE_HZ
        features = []
        for row in canonical:
            signal = recordings[0].replace(samples=row, sample_rate=rate)
            features.append(self._extractor.extract(trim_silence(signal)))
        return self._match_features(features)

    def recognize_many(
        self, recordings: list[Signal], max_pairs: int = 2048
    ) -> list[RecognitionResult]:
        """Match many recordings of *any* lengths, batched by slab.

        :meth:`recognize_batch` needs one common length (it stacks the
        waveforms for a shared resample); the streaming kernel's
        utterances close at arbitrary boundaries, so here each
        recording is featurised individually (the exact
        :meth:`recognize` front-end) and only the DTW — the dominant
        cost — is batched. Pairs are swept in slabs of at most
        ``max_pairs`` to bound the padded feature stacks' memory; slab
        composition cannot change any score because every pair's DP
        table is masked to its own band (padding cells stay at
        infinity), so entry ``i`` is bitwise ``recognize(recordings[i])``.
        """
        if not self._templates:
            raise RecognitionError(
                "no commands enrolled; call enroll() before recognize()"
            )
        if not recordings:
            return []
        if max_pairs < 1:
            raise RecognitionError(
                f"max_pairs must be >= 1, got {max_pairs}"
            )
        n_templates = sum(len(t) for t in self._templates.values())
        per_slab = max(1, max_pairs // n_templates)
        features = [self._featurize(r) for r in recordings]
        results: list[RecognitionResult] = []
        for lo in range(0, len(features), per_slab):
            results.extend(
                self._match_features(features[lo : lo + per_slab])
            )
        return results

    def recognizes_as(self, recording: Signal, command: str) -> bool:
        """True if the recording is accepted *and* matches ``command``.

        This is the per-trial success criterion of the attack
        experiments: the device must both wake and parse the intended
        command.
        """
        result = self.recognize(recording)
        return result.accepted and result.command == command

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _featurize(self, recording: Signal) -> np.ndarray:
        from repro.dsp.resample import resample

        canonical = resample(recording, self.CANONICAL_RATE_HZ)
        trimmed = trim_silence(canonical)
        return self._extractor.extract(trimmed)

    def _match_features(
        self, features: list[np.ndarray]
    ) -> list[RecognitionResult]:
        """Score featurised recordings against every template at once.

        One batched DTW over every (recording, template) pair, folded
        back into one :class:`RecognitionResult` per recording: the
        per-command distance is the minimum over that command's
        templates, the best command the minimum over commands.
        """
        pairs = []
        for trial_features in features:
            for templates in self._templates.values():
                for template in templates:
                    pairs.append((trial_features, template))
        distances_flat = self._dtw_distance_batch(pairs)
        results = []
        index = 0
        for _ in features:
            distances = {}
            for command, templates in self._templates.items():
                distances[command] = min(
                    distances_flat[index : index + len(templates)]
                )
                index += len(templates)
            best_command = min(distances, key=distances.get)
            best_distance = distances[best_command]
            results.append(
                RecognitionResult(
                    accepted=best_distance <= self.acceptance_threshold,
                    command=best_command,
                    distance=best_distance,
                    distances=distances,
                )
            )
        return results

    def _dtw_distance_batch(
        self, pairs: list[tuple[np.ndarray, np.ndarray]]
    ) -> list[float]:
        """Banded DTW over many (query, template) pairs at once.

        All DP tables are padded to a common shape and swept along
        anti-diagonals: every cell on a diagonal depends only on the
        two previous diagonals, so the sweep keeps just three rolling
        ``(n_pairs, n_max + 1)`` diagonal buffers (no full DP tensor)
        and each step is one vectorised three-way minimum. Because an
        anti-diagonal visits contiguous ranges of query and template
        frames, the local-cost operands are plain (reversed) slices of
        the padded feature stacks — no gather copies anywhere in the
        loop. The per-cell arithmetic — Euclidean local cost, ``min``
        of the three predecessors, out-of-band cells pinned at
        infinity — is exactly :meth:`_dtw_distance`'s (the subtraction
        writes a fresh contiguous temporary, so the coefficient-axis
        reduction order is unchanged), so each returned value is
        bitwise identical to the scalar score of that pair.
        """
        n_pairs = len(pairs)
        ns = np.empty(n_pairs, dtype=np.int64)
        ms = np.empty(n_pairs, dtype=np.int64)
        bands = np.empty(n_pairs, dtype=np.int64)
        for k, (a, b) in enumerate(pairs):
            n, m = a.shape[0], b.shape[0]
            if n == 0 or m == 0:
                raise RecognitionError(
                    "cannot DTW-match empty feature matrices"
                )
            ns[k], ms[k] = n, m
            bands[k] = max(
                int(self.band_fraction * max(n, m)), abs(n - m) + 1
            )
        n_max, m_max = int(ns.max()), int(ms.max())
        band_max = int(bands.max())
        n_coeffs = pairs[0][0].shape[1]
        a_pad = np.zeros((n_pairs, n_max, n_coeffs))
        b_pad = np.zeros((n_pairs, m_max, n_coeffs))
        for k, (a, b) in enumerate(pairs):
            a_pad[k, : a.shape[0]] = a
            b_pad[k, : b.shape[0]] = b
        inf = np.inf
        # Rolling diagonal buffers, indexed by i: prev2 holds diagonal
        # d - 2, prev holds d - 1, cur is being filled. Diagonal 0 is
        # the single cell (0, 0) = 0; diagonal 1 is entirely infinite
        # (the scalar table's first row and column), so prev starts as
        # all-inf.
        prev2 = np.full((n_pairs, n_max + 1), inf)
        prev = np.full((n_pairs, n_max + 1), inf)
        cur = np.empty((n_pairs, n_max + 1))
        prev2[:, 0] = 0.0
        ns_col = ns[:, np.newaxis]
        ms_col = ms[:, np.newaxis]
        bands_col = bands[:, np.newaxis]
        end_diag = ns + ms
        distances = np.empty(n_pairs)
        for diag in range(2, n_max + m_max + 1):
            # Cells on the anti-diagonal restricted to the widest
            # band's corridor (|i - j| <= band_max); everything outside
            # stays at infinity, exactly like the scalar sweep, and the
            # local costs are only ever computed inside the corridor.
            i_lo = max(1, diag - m_max, (diag - band_max + 1) // 2)
            i_hi = min(n_max, diag - 1, (diag + band_max) // 2)
            cur[:] = inf
            if i_lo <= i_hi:
                i = np.arange(i_lo, i_hi + 1)
                j = diag - i
                # As i ascends along the diagonal, the query frame
                # index i - 1 ascends and the template frame index
                # j - 1 descends — both contiguously, so the operands
                # are views and the subtraction is the only copy.
                diffs = (
                    a_pad[:, i_lo - 1 : i_hi, :]
                    - b_pad[:, diag - i_hi - 1 : diag - i_lo, :][:, ::-1, :]
                )
                np.multiply(diffs, diffs, out=diffs)
                local = np.sqrt(np.sum(diffs, axis=-1))
                step = np.minimum(
                    np.minimum(
                        prev2[:, i_lo - 1 : i_hi],
                        prev[:, i_lo - 1 : i_hi],
                    ),
                    prev[:, i_lo : i_hi + 1],
                )
                in_band = (
                    (i <= ns_col)
                    & (j <= ms_col)
                    & (j >= i - bands_col)
                    & (j <= i + bands_col)
                )
                cur[:, i_lo : i_hi + 1] = np.where(
                    in_band, local + step, inf
                )
            # A pair's score lives at cell (n, m) on diagonal n + m;
            # harvest it before the buffer rotates away.
            done = np.flatnonzero(end_diag == diag)
            if done.size:
                distances[done] = cur[done, ns[done]]
            prev2, prev, cur = prev, cur, prev2
        out = []
        for k, distance in enumerate(distances):
            if not np.isfinite(distance):
                raise RecognitionError(
                    "DTW band too narrow for the length mismatch "
                    f"between sequences ({int(ns[k])} vs {int(ms[k])} "
                    "frames)"
                )
            out.append(float(distance / (int(ns[k]) + int(ms[k]))))
        return out

    def _dtw_distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Band-constrained DTW, normalised by path-independent length.

        Frame-pair cost is Euclidean distance in feature space; steps
        are the standard (diagonal, vertical, horizontal) with unit
        weights; the final distance is divided by ``len(a) + len(b)``
        so different-length commands are comparable.
        """
        n, m = a.shape[0], b.shape[0]
        if n == 0 or m == 0:
            raise RecognitionError("cannot DTW-match empty feature matrices")
        band = max(int(self.band_fraction * max(n, m)), abs(n - m) + 1)
        # Pairwise distances, computed row-band by row-band.
        inf = np.inf
        cost = np.full((n + 1, m + 1), inf)
        cost[0, 0] = 0.0
        for i in range(1, n + 1):
            j_low = max(1, i - band)
            j_high = min(m, i + band)
            row_a = a[i - 1]
            diffs = b[j_low - 1 : j_high] - row_a
            local = np.sqrt(np.sum(diffs * diffs, axis=1))
            for offset, j in enumerate(range(j_low, j_high + 1)):
                step = min(
                    cost[i - 1, j - 1], cost[i - 1, j], cost[i, j - 1]
                )
                cost[i, j] = local[offset] + step
        distance = cost[n, m]
        if not np.isfinite(distance):
            raise RecognitionError(
                "DTW band too narrow for the length mismatch between "
                f"sequences ({n} vs {m} frames)"
            )
        return float(distance / (n + m))
