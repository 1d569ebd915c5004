"""The one-layer march, the reference the tests compare ``run_simulation``'s
blocks against.

``run_per_layer`` is ``run_simulation``'s loop from before blocks: one call of
the plan's one-layer advance per layer, under the caller's error state, one
``max_abs`` divergence test per layer, and a copy of each kept layer.  It
skips the argument checks that ``run_simulation`` makes first.
"""

from heatlab import Field, RunRecord, SolverError
from heatlab.grid import max_abs
from heatlab.schemes import (DIVERGENCE_THRESHOLD, SPECS, FixedPointError,
                             _float_layer, _plan)


def run_per_layer(initial, params, bcs, scheme, num_steps,
                  snapshot_every=1) -> RunRecord:
    values, norm = _float_layer(initial.values)
    if values is not initial.values:
        initial = Field(values=values, time_index=initial.time_index)
    record = RunRecord()
    record.append(initial, True, norm)
    if num_steps == 0:
        return record
    start, end = initial.time_index, initial.time_index + num_steps
    prev, curr = None, values
    advance = _plan(scheme, params, bcs, len(curr))
    period = SPECS[scheme].layers

    for step in range(start + 1, end + 1):
        try:
            prev, curr = curr, advance(prev, curr, step - 1)
        except (ArithmeticError, FixedPointError, ValueError) as exc:
            raise SolverError(step=step, cause=exc) from exc
        norm = max_abs(curr)
        if not norm <= DIVERGENCE_THRESHOLD:
            record.diverged = True
            record.diverged_step = step
        elif (step - start) % snapshot_every and step != end:
            continue  # between snapshots, and not the last layer
        record.append(Field(values=curr.copy(), time_index=step),
                      (step - start) % period == 0, norm)
        if record.diverged:
            break
    return record
