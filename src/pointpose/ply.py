"""PLY point-cloud reader/writer (ASCII and binary little-endian).

Understood vertex properties: x y z, nx ny nz, curvature, red green blue
(uint8 mapped to [0, 1] by /255, or float taken as-is). Unknown properties
are skipped; non-vertex elements after the vertex data are ignored.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import PlyFormatError
from .pointcloud import PointCloud

_PLY_DTYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _parse_header(f):
    if f.readline().strip() != b"ply":
        raise PlyFormatError("not a PLY file (missing 'ply' magic)")
    fmt = None
    elements = []  # (name, count, [(dtype_code, prop_name)])
    while True:
        line = f.readline()
        if not line:
            raise PlyFormatError("unterminated PLY header")
        parts = line.decode("ascii", "replace").strip().split()
        if not parts or parts[0] == "comment":
            continue
        try:
            if parts[0] == "format":
                fmt = parts[1]
            elif parts[0] == "element":
                if int(parts[2]) < 0:
                    raise PlyFormatError(f"negative PLY element count {parts[2]}")
                elements.append((parts[1], int(parts[2]), []))
            elif parts[0] == "property":
                if not elements:
                    raise PlyFormatError("property before any element")
                if parts[1] == "list":
                    elements[-1][2].append(("list", (parts[2], parts[3]), parts[4]))
                else:
                    if parts[1] not in _PLY_DTYPES:
                        raise PlyFormatError(f"unsupported PLY property type {parts[1]}")
                    elements[-1][2].append((_PLY_DTYPES[parts[1]], None, parts[2]))
            elif parts[0] == "end_header":
                break
        except PlyFormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise PlyFormatError(f"bad PLY header line {' '.join(parts)!r}") from exc
    if fmt not in ("ascii", "binary_little_endian"):
        raise PlyFormatError(f"unsupported PLY format {fmt}")
    return fmt, elements


def read_ply(path) -> PointCloud:
    """Read a PLY file; any format error raises PlyFormatError."""
    with open(path, "rb") as f:
        fmt, elements = _parse_header(f)
        if not elements or elements[0][0] != "vertex":
            raise PlyFormatError("PLY file must lead with a vertex element")
        _, count, props = elements[0]
        if any(code == "list" for code, _, _ in props):
            raise PlyFormatError("list properties on vertices are not supported")
        names = [name for _, _, name in props]
        try:
            dtype = np.dtype([(name, "<" + code) for code, _, name in props])
        except ValueError as exc:  # a repeated property name
            raise PlyFormatError(f"bad PLY vertex properties: {exc}") from exc

        if fmt == "binary_little_endian":
            # checked against the file first: a corrupt count would size the read
            if count * dtype.itemsize > os.fstat(f.fileno()).st_size - f.tell():
                raise PlyFormatError("truncated PLY vertex data")
            data = np.frombuffer(f.read(count * dtype.itemsize), dtype=dtype)
        else:
            rows = []
            for k in range(count):
                line = f.readline()
                if not line:
                    raise PlyFormatError(f"truncated ASCII PLY at vertex {k}")
                rows.append(tuple(line.decode("ascii", "replace").split()[: len(names)]))
            try:
                data = np.array(rows, dtype=dtype) if rows else np.empty(0, dtype=dtype)
            except ValueError as exc:
                raise PlyFormatError(f"bad ASCII PLY vertex data: {exc}") from exc

    def col(name):
        # arbitrary bytes may hold a signalling NaN; detection and model
        # loading reject non-finite coordinates themselves
        with np.errstate(invalid="ignore"):
            return data[name].astype(np.float64)

    for axis in ("x", "y", "z"):
        if axis not in names:
            raise PlyFormatError(f"vertex element lacks '{axis}' property")
    positions = np.stack([col("x"), col("y"), col("z")], axis=1)

    normals = None
    if all(p in names for p in ("nx", "ny", "nz")):
        normals = np.stack([col("nx"), col("ny"), col("nz")], axis=1)
    curvatures = col("curvature") if "curvature" in names else None
    colors = None
    if all(p in names for p in ("red", "green", "blue")):
        colors = np.stack([col("red"), col("green"), col("blue")], axis=1)
        if any(dtype[p].kind == "u" for p in ("red", "green", "blue")):
            colors = colors / 255.0

    return PointCloud(positions=positions, normals=normals,
                      curvatures=curvatures, colors=colors)


def write_ply(path, cloud: PointCloud, binary: bool = True) -> None:
    """Write positions plus whichever optional channels the cloud carries.

    Coordinates/normals/curvature are stored as float32; colors as uint8.
    """
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    if cloud.normals is not None:
        fields += [("nx", "<f4"), ("ny", "<f4"), ("nz", "<f4")]
    if cloud.curvatures is not None:
        fields += [("curvature", "<f4")]
    if cloud.colors is not None:
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]

    data = np.empty(len(cloud), dtype=np.dtype(fields))
    for i, axis in enumerate(("x", "y", "z")):
        data[axis] = cloud.positions[:, i].astype(np.float32)
    if cloud.normals is not None:
        for i, axis in enumerate(("nx", "ny", "nz")):
            data[axis] = cloud.normals[:, i].astype(np.float32)
    if cloud.curvatures is not None:
        data["curvature"] = cloud.curvatures.astype(np.float32)
    if cloud.colors is not None:
        rgb = np.clip(np.rint(cloud.colors * 255.0), 0, 255).astype(np.uint8)
        for i, chan in enumerate(("red", "green", "blue")):
            data[chan] = rgb[:, i]

    type_names = {"<f4": "float", "u1": "uchar"}
    header = ["ply",
              "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {len(cloud)}"]
    header += [f"property {type_names[code]} {name}" for name, code in fields]
    header.append("end_header")

    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            f.write(data.tobytes())
        else:
            for row in data:
                f.write((" ".join(_format_ascii(v) for v in row) + "\n").encode("ascii"))


def _format_ascii(v) -> str:
    if isinstance(v, (np.floating, float)):
        return repr(float(np.float32(v)))
    return str(int(v))
