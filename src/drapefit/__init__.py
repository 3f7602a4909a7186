"""drapefit: quasi-static cloth drapes from a neural implicit surface.

The garment is a continuous UV-parameterized surface whose deformation is a
small multi-resolution grid network. Training needs no mesh connectivity and
no ground-truth data: physics losses are evaluated on randomly rotated local
sampling patches, with sample placement adapting to where the losses
concentrate.
"""

from .collider import (
    ColliderMesh,
    SpatialIndex,
    build_index,
    compute_vertex_normals,
    icosphere,
    nearest_vertex,
    prism,
    torus,
)
from .losses import (
    LossBreakdown,
    LossWeights,
    PhysicsConstants,
    bend_loss,
    collision_loss,
    evaluate_structure_batch,
    gravity_loss,
    strain_loss,
    strain_loss_absolute,
    structure_loss,
)
from .restatlas import (
    BarycentricCoords,
    GarmentRestMesh,
    RestAtlas,
    TriangleLocator,
    barycentric_coords,
    build_atlas,
    locate_triangle,
    rest_length,
    rest_position,
    square_cloth,
    square_cloth_with_hole,
)
from .sampler import (
    DiscretePdf,
    SamplerConfig,
    estimate_cell_losses,
    lloyd_relax,
    min_spacing_report,
    sample_batch,
    sample_cell,
    sample_point_in_cell,
    update_pdf,
)
from .structures import (
    LocalStructure2D,
    LocalStructure3D,
    build_structure_2d,
    lift_structure,
)
from .surface import (
    EncoderConfig,
    GradientBuffer,
    GridLayer,
    MlpParams,
    SurfaceModel,
    backward,
    bilinear_features,
    deform,
    encode,
    forward_batch,
    init_model,
    load_checkpoint,
    param_count,
    positional_encode,
    save_checkpoint,
    surface_position,
)
from .trainer import (
    BenchResult,
    DenseReport,
    TrainConfig,
    TrainState,
    detect_convergence,
    evaluate_dense,
    mesh_connectivity_baseline,
    run_epochs,
    supervised_bench,
    train,
    train_epoch,
)

__version__ = "0.1.0"
