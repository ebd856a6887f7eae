"""Friends-and-strangers graphs: brute-force component search plus the
orientation-based structure theorems that predict the same counts."""

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    FsgraphError,
    InvalidArgumentError,
    InvalidMoveError,
    ResourceLimitError,
)
from .fscore import (
    ComponentReport,
    FSInstance,
    component_of,
    components,
    friendly_neighbors,
    is_connected,
)
from .graphs import (
    Graph,
    StructureReport,
    build_named,
    delete_vertex,
    disjoint_union,
    induced_subgraph,
    structure_report,
)
from .orientations import (
    Orientation,
    OrientationPartition,
    enumerate_acyclic,
    linear_extensions,
    orientation_from_permutation,
    partition_by_moves,
    phi,
)
from .perms import Permutation
from .theorems import (
    ConnectivityVerdict,
    CutPathCertificate,
    CycleStructure,
    PathStructure,
    StarStructure,
    cut_path_certificate,
    cycle_fs_structure,
    decide_connectivity,
    family_component_count,
    path_fs_structure,
    star_fs_structure,
)
from .tutte import tutte_eval

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "RunConfig",
    "FsgraphError",
    "InvalidArgumentError",
    "InvalidMoveError",
    "ResourceLimitError",
    "Graph",
    "StructureReport",
    "build_named",
    "structure_report",
    "induced_subgraph",
    "delete_vertex",
    "disjoint_union",
    "Permutation",
    "Orientation",
    "OrientationPartition",
    "orientation_from_permutation",
    "enumerate_acyclic",
    "partition_by_moves",
    "linear_extensions",
    "phi",
    "FSInstance",
    "ComponentReport",
    "friendly_neighbors",
    "component_of",
    "components",
    "is_connected",
    "ConnectivityVerdict",
    "PathStructure",
    "CycleStructure",
    "StarStructure",
    "CutPathCertificate",
    "tutte_eval",
    "path_fs_structure",
    "cycle_fs_structure",
    "star_fs_structure",
    "family_component_count",
    "cut_path_certificate",
    "decide_connectivity",
    "__version__",
]
