"""Reference trainer: the toy problem's math run straight through on one
thread, with no parameter buffers, actors or clock.

It is kept only so tests can require the synchronous baseline with zero
delays to produce exactly the same loss curve.
"""
import numpy as np

from hiermem.lockfree import MasterState, ToyTrainConfig, batch_for, forward_backward, init_problem


def reference_train(toy_cfg: ToyTrainConfig, iterations: int) -> list[float]:
    """Single-threaded reference trainer: same math, no buffers or actors."""
    cfg = toy_cfg
    teacher, student, readout, _ = init_problem(cfg)
    masters = MasterState(student)
    losses = []
    for it in range(iterations):
        x, y = batch_for(cfg, teacher, readout, it)
        params = [p.astype(np.float16).astype(np.float32) for p in masters.p32]
        loss, grads = forward_backward(params, readout, x, y)
        losses.append(loss)
        for l in reversed(range(cfg.num_layers)):
            g16 = grads[l].astype(np.float16)
            masters.update_layer(l, g16.astype(np.float32), cfg.hyper)
    return losses
