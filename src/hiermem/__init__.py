"""hiermem: hierarchical-memory training simulator.

Analytical Transformer footprints, page-based GPU/CPU/SSD memory pools,
tensor-lifetime tracing, two-phase page scheduling, discrete-event replay,
and an executable lock-free optimizer-update protocol with a toy trainer.
"""

from .errors import (
    AllocationError,
    ConfigError,
    InfeasibleScheduleError,
    MoveError,
    ProtocolError,
    SimulationError,
)
from .footprint import (
    LayerFootprint,
    TensorSpec,
    TransformerConfig,
    layer_footprint,
    model_footprint,
    param_count,
    tensor_inventory,
)
from .lockfree import (
    AdamHyper,
    DelayModel,
    GradMessage,
    MasterState,
    ParamBuffer,
    ToyTrainConfig,
    TrainReport,
    apply_update,
    publish_params,
    run_lockfree,
    run_sync,
)
from .pagemem import (
    ManagedTensor,
    Page,
    PageManager,
    Tier,
    TierPool,
    fragmentation,
    pool_init,
    tensor_allocate,
    tensor_release,
)
from .pipeline import run_pipeline
from .scheduler import (
    LayerModel,
    Schedule,
    ShardingModel,
    Task,
    TaskColumns,
    available_memory,
    peak_memory,
    schedule,
    task_columns,
    validate_schedule,
)
from .simengine import (
    HardwareProfile,
    LinkSpec,
    SimReport,
    compare,
    simulate,
)
from .tracer import (
    TensorTrace,
    TimingModel,
    build_trace,
    validate_trace,
)

__version__ = "0.1.0"
