"""H.264 decoder macroblock wavefront (the paper's ``H264dec`` benchmark).

The Starbench ``h264dec`` used in the paper decodes HD frames with
macroblock-level parallelism: a macroblock can only be reconstructed once
its intra-prediction neighbours in the same frame (left, top-left, top and
top-right) and its co-located reference in the previous frame are done.
The paper evaluates four task granularities, labelled 8, 4, 2 and 1, which
group that many macroblocks per side into one task.

The generator builds exactly that dependence structure on a configurable
macroblock grid:

* ``inout`` on the task's own block region;
* ``in`` on the left, top-left, top and top-right neighbouring regions of
  the same frame (when they exist);
* ``in`` on the co-located region of the previous frame (motion
  compensation reference), for every frame after the first.

Interior tasks therefore carry 6 dependences and boundary/first-frame tasks
carry 2-5, matching the 2-6 range of Table I.  The default grid (120 x 116
macroblocks, 10 frames) gives task counts close to the Table I values for
the four granularities.
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.common import DEFAULT_BASE_ADDRESS
from repro.runtime.task import Dependence, DependencePool, TaskProgram

#: Macroblock grid of one HD frame at the finest granularity.
DEFAULT_MB_COLS = 120
DEFAULT_MB_ROWS = 116
#: Bytes occupied by the decoded pixels of one macroblock (16x16 + chroma).
_MACROBLOCK_BYTES = 384


def h264dec_program(
    frames: int = 10,
    block_size: int = 8,
    mb_cols: int = DEFAULT_MB_COLS,
    mb_rows: int = DEFAULT_MB_ROWS,
    base_address: Optional[int] = None,
) -> TaskProgram:
    """Build the macroblock-wavefront decode task program.

    Parameters
    ----------
    frames:
        Number of frames to decode (the paper uses 10 HD frames).
    block_size:
        Macroblocks per task side (8, 4, 2 or 1 in the paper); smaller means
        finer-grained tasks and more of them.
    mb_cols / mb_rows:
        Macroblock grid of one frame; the defaults approximate the HD
        sequence of the paper.
    """
    if frames < 1:
        raise ValueError("at least one frame is required")
    if block_size < 1:
        raise ValueError("block size must be positive")
    cols = (mb_cols + block_size - 1) // block_size
    rows = (mb_rows + block_size - 1) // block_size
    base = base_address if base_address is not None else DEFAULT_BASE_ADDRESS
    region_bytes = _MACROBLOCK_BYTES * block_size * block_size
    frame_bytes = _round_up(region_bytes * cols * rows, 1 << 20)

    def region_address(frame: int, x: int, y: int) -> int:
        return base + frame * frame_bytes + (y * cols + x) * region_bytes

    program = TaskProgram(name=f"h264dec-{frames}f-{block_size}")
    pool = DependencePool()
    for frame in range(frames):
        for y in range(rows):
            for x in range(cols):
                deps: List[Dependence] = [pool.inout(region_address(frame, x, y))]
                neighbours = (
                    (x - 1, y),      # left
                    (x - 1, y - 1),  # top-left
                    (x, y - 1),      # top
                    (x + 1, y - 1),  # top-right
                )
                for nx, ny in neighbours:
                    if 0 <= nx < cols and 0 <= ny < rows:
                        deps.append(pool.input(region_address(frame, nx, ny)))
                if frame > 0:
                    deps.append(pool.input(region_address(frame - 1, x, y)))
                program.create_task(deps, duration=4, label="macroblock_region")
    return program


def h264dec_task_count(
    frames: int = 10,
    block_size: int = 8,
    mb_cols: int = DEFAULT_MB_COLS,
    mb_rows: int = DEFAULT_MB_ROWS,
) -> int:
    """Number of tasks the decoder creates for this granularity."""
    cols = (mb_cols + block_size - 1) // block_size
    rows = (mb_rows + block_size - 1) // block_size
    return frames * cols * rows


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple
