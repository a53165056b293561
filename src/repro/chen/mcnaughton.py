"""McNaughton wrap-around placement for pool jobs.

Inside an atomic interval, pool jobs all run at the common pool speed and
must share ``m - d`` processors with at most one job per processor at a
time and no job on two processors at once. McNaughton's classic rule does
this with at most ``m - d - 1`` migrations: lay the jobs out back-to-back
on a virtual timeline of length ``(m - d) * l_k`` and cut it into
``m - d`` strips of length ``l_k``. A job cut by a strip boundary runs at
the end of one processor's interval and the beginning of the next's; it
never overlaps itself because each pool job's duration is at most ``l_k``
(guaranteed by the dedication stopping rule).

The output is a list of concrete :class:`Segment` records, which the
schedule layer concatenates across intervals and the validator checks for
both feasibility constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import InfeasibleScheduleError

__all__ = ["Segment", "mcnaughton_layout"]

#: Durations below this are dropped (avoids zero-length segments from
#: floating-point dust at strip boundaries).
_DURATION_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Segment:
    """A maximal run of one job on one processor at constant speed.

    ``start``/``end`` are absolute times; ``job`` is a caller-defined job
    identifier (the library uses instance job ids).
    """

    job: int
    processor: int
    start: float
    end: float
    speed: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def work(self) -> float:
        """Work processed during the segment."""
        return self.duration * self.speed

    @property
    def energy(self) -> float:
        """Placeholder-free energy requires the power function; see Schedule."""
        raise AttributeError("energy depends on the power function; use Schedule")


def mcnaughton_layout(
    job_ids: Sequence[int],
    durations: Sequence[float],
    *,
    start: float,
    length: float,
    first_processor: int,
    num_processors: int,
    speed: float,
) -> list[Segment]:
    """Wrap-around placement of jobs with given ``durations``.

    Parameters
    ----------
    job_ids, durations:
        Parallel sequences; ``durations[i]`` is how long job ``job_ids[i]``
        must run (at the common ``speed``). Each duration must be at most
        ``length`` and the total at most ``num_processors * length``
        (both hold for Chen et al. pool jobs; violations raise).
    start, length:
        Absolute start time and length of the interval.
    first_processor, num_processors:
        The processor index range ``[first_processor, first_processor +
        num_processors)`` available to the pool.
    speed:
        Common execution speed, recorded on every emitted segment.

    Returns
    -------
    Segments sorted by (processor, start). A job split by a strip boundary
    yields two segments on adjacent processors whose time ranges do not
    overlap (the first ends the earlier processor's interval, the second
    starts the later one's).
    """
    if len(job_ids) != len(durations):
        raise InfeasibleScheduleError("job_ids and durations must align")
    total = float(sum(durations))
    if total > num_processors * length * (1.0 + 1e-9) + _DURATION_EPS:
        raise InfeasibleScheduleError(
            f"pool work ({total}) exceeds capacity "
            f"({num_processors} processors x {length})"
        )
    segments: list[Segment] = []
    # Position on the virtual timeline: strip index plus offset into it.
    # Tracking the strip as an integer (rather than re-deriving it from a
    # float cursor) guarantees progress: every pass either exhausts the
    # job or moves to the next strip, and the last strip takes whatever
    # is left — float dust within the capacity check's tolerance.
    strip, offset = 0, 0.0
    last = num_processors - 1
    for job, dur in zip(job_ids, durations):
        dur = float(dur)
        if dur <= _DURATION_EPS:
            continue
        if dur > length * (1.0 + 1e-9) + _DURATION_EPS:
            raise InfeasibleScheduleError(
                f"pool job {job} duration {dur} exceeds interval length {length}; "
                "it should have been dedicated"
            )
        remaining = dur
        while remaining > _DURATION_EPS:
            take = remaining if strip == last else min(remaining, length - offset)
            if take > _DURATION_EPS:
                segments.append(
                    Segment(
                        job=job,
                        processor=first_processor + strip,
                        start=start + offset,
                        end=start + offset + take,
                        speed=speed,
                    )
                )
                offset += take
                remaining -= take
            if strip < last and length - offset <= _DURATION_EPS:
                strip, offset = strip + 1, 0.0
    segments.sort(key=lambda s: (s.processor, s.start))
    return segments
