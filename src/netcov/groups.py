"""Community-based feature groups over the canonical coordinate system.

Two primitives partition the coordinates: *blocks* (the node-covariate
features of one community) and *cells* (the edge features linking one
pair of communities).  From these, two overlapping grouping schemes are
built:

* node-based groups (NBG): K groups; group k is community k's block
  together with every cell touching community k.  Within-community edges
  land in exactly one group, cross-community edges in exactly two.
* edge-based groups (EBG): K(K+1)/2 groups; group (k, k'), k <= k' and
  named ``(k,k')``, is the cell linking communities k and k' together
  with both communities' blocks.
  Each edge lands in exactly one group, each node covariate in K groups.

A SINGLETON scheme with one group per coordinate reduces the group
penalty to the plain LASSO and is used as a baseline.

Because groups overlap, the solver works on an expanded design in which
shared coordinates are duplicated so groups become disjoint; the
:class:`ExpansionMap` records the duplication and :func:`fold_back` sums
duplicates to recover a coefficient vector in the original space.
"""

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupSpec",
    "ExpansionMap",
    "blocks",
    "cells",
    "nbg_groups",
    "ebg_groups",
    "singleton_groups",
    "SCHEMES",
    "scheme_groups",
    "expand",
    "fold_back",
    "split_communities",
]


@dataclass(frozen=True)
class GroupSpec:
    """An ordered collection of (possibly overlapping) feature index sets.

    Every feature 0..p-1 must appear in at least one group.  Members are
    stored sorted ascending; group order is the contract order for all
    path outputs.  Empty groups are dropped at construction with a
    warning (the group penalty is undefined for them).
    """

    names: tuple
    members: tuple
    scheme: str
    p: int

    def __post_init__(self):
        if len(self.names) != len(self.members):
            raise ValueError("names and members must align")
        kept_names, kept_members = [], []
        for name, g in zip(self.names, self.members):
            g = np.unique(np.asarray(g, dtype=np.int64))
            if g.size == 0:
                warnings.warn(f"dropping empty group {name!r}")
                continue
            if g.min() < 0 or g.max() >= self.p:
                raise ValueError(f"group {name!r} has indices outside 0..{self.p - 1}")
            g.flags.writeable = False
            kept_names.append(str(name))
            kept_members.append(g)
        if not kept_members:
            raise ValueError("group specification has no nonempty groups")
        covered = np.zeros(self.p, dtype=bool)
        for g in kept_members:
            covered[g] = True
        if not covered.all():
            missing = np.flatnonzero(~covered)
            raise ValueError(
                f"{missing.size} features appear in no group "
                f"(first few: {missing[:5].tolist()})"
            )
        object.__setattr__(self, "names", tuple(kept_names))
        object.__setattr__(self, "members", tuple(kept_members))

    @property
    def n_groups(self):
        return len(self.names)

    def sizes(self):
        return np.array([g.size for g in self.members])

    def lookup(self, name):
        """Index of the group named exactly ``name``: a pair group is
        ``(k,k')`` with k <= k', as :func:`ebg_groups` names it."""
        if name not in self.names:
            raise ValueError(
                f"no group named {name!r} in scheme {self.scheme}")
        return self.names.index(name)


@dataclass(frozen=True)
class ExpansionMap:
    """Duplication of shared coordinates so groups become disjoint.

    ``expanded_to_original[j]`` is the source coordinate of duplicated
    coordinate j.  Duplicates are laid out group by group in GroupSpec
    order, ascending original index within each group, so the expanded
    design is ``Z_star = [Z[:, G] for G in groups]`` concatenated; group
    g owns expanded coordinates ``offsets[g]:offsets[g + 1]``.
    """

    expanded_to_original: np.ndarray
    offsets: np.ndarray
    p: int

    @property
    def p_star(self):
        return self.expanded_to_original.size


def blocks(cm, idx):
    """Node-covariate coordinate sets per community (K arrays, maybe empty)."""
    if cm.n != idx.n:
        raise ValueError(f"community map covers {cm.n} nodes, index expects {idx.n}")
    out = []
    for k in range(1, cm.K + 1):
        nodes = cm.members(k)
        if idx.d == 0:
            out.append(np.array([], dtype=np.int64))
        else:
            coords = (idx.n_edges + nodes[:, None] * idx.d
                      + np.arange(idx.d)[None, :])
            out.append(np.sort(coords.ravel()))
    return out


def _cell_pairs(K):
    """Community pairs (k, k'), k <= k', in row-major contract order."""
    return [(k, kp) for k in range(1, K + 1) for kp in range(k, K + 1)]


def cells(cm, idx):
    """Edge coordinate sets per community pair, in ``_cell_pairs`` order.

    Cell (k, k') holds the edges with one endpoint in community k and the
    other in k'.  Cells partition the edge coordinates; a diagonal cell is
    empty when its community has a single node.
    """
    if cm.n != idx.n:
        raise ValueError(f"community map covers {cm.n} nodes, index expects {idx.n}")
    rows, cols = np.triu_indices(idx.n, k=1)
    ck = cm.assignments[rows]
    cl = cm.assignments[cols]
    lo = np.minimum(ck, cl)
    hi = np.maximum(ck, cl)
    out = {}
    for pair in _cell_pairs(cm.K):
        out[pair] = np.array([], dtype=np.int64)
    codes = lo * (cm.K + 1) + hi
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    for chunk in np.split(order, boundaries):
        k, kp = int(lo[chunk[0]]), int(hi[chunk[0]])
        out[(k, kp)] = np.sort(chunk.astype(np.int64))
    return [out[pair] for pair in _cell_pairs(cm.K)]


def nbg_groups(cm, idx):
    """Node-based groups: K groups, one per community."""
    blk = blocks(cm, idx)
    cel = cells(cm, idx)
    pairs = _cell_pairs(cm.K)
    parts = {k: [blk[k - 1]] for k in range(1, cm.K + 1)}
    for (k, kp), members in zip(pairs, cel):
        parts[k].append(members)
        if kp != k:
            parts[kp].append(members)
    names = [str(k) for k in range(1, cm.K + 1)]
    members = [np.unique(np.concatenate(parts[k])) for k in range(1, cm.K + 1)]
    return GroupSpec(names=tuple(names), members=tuple(members),
                     scheme="NBG", p=idx.p)


def ebg_groups(cm, idx):
    """Edge-based groups: K(K+1)/2 groups, one per community pair."""
    blk = blocks(cm, idx)
    cel = cells(cm, idx)
    names, members = [], []
    for (k, kp), cell_members in zip(_cell_pairs(cm.K), cel):
        g = np.unique(np.concatenate([cell_members, blk[k - 1], blk[kp - 1]]))
        names.append(f"({k},{kp})")
        members.append(g)
    return GroupSpec(names=tuple(names), members=tuple(members),
                     scheme="EBG", p=idx.p)


def singleton_groups(idx):
    """One group per coordinate; reduces the penalty to the plain LASSO."""
    names = tuple(f"f{j}" for j in range(idx.p))
    members = tuple(np.array([j], dtype=np.int64) for j in range(idx.p))
    return GroupSpec(names=names, members=members, scheme="SINGLETON", p=idx.p)


SCHEMES = ("nbg", "ebg", "lasso")


def scheme_groups(scheme, cm, idx):
    """GroupSpec of a scheme named ``nbg``, ``ebg`` or ``lasso`` (any case)."""
    name = str(scheme).lower()
    if name == "nbg":
        return nbg_groups(cm, idx)
    if name == "ebg":
        return ebg_groups(cm, idx)
    if name == "lasso":
        return singleton_groups(idx)
    raise ValueError(f"scheme must be one of {SCHEMES}, got {name!r}")


def expand(spec):
    """Build the duplication map for an overlapping group specification."""
    mapping = np.concatenate(spec.members)
    offsets = np.concatenate(([0], np.cumsum(spec.sizes())))
    mapping.flags.writeable = offsets.flags.writeable = False
    return ExpansionMap(expanded_to_original=mapping, offsets=offsets,
                        p=spec.p)


def fold_back(beta_star, emap):
    """Sum duplicated coefficients back to the original p coordinates."""
    beta_star = np.asarray(beta_star, dtype=np.float64).ravel()
    if beta_star.size != emap.p_star:
        raise ValueError(
            f"expanded vector has length {beta_star.size}, expected {emap.p_star}"
        )
    return np.bincount(emap.expanded_to_original, weights=beta_star,
                       minlength=emap.p)


def split_communities(cm, target_size, seed):
    """Randomly break large communities into near-target-sized pieces.

    Each community's nodes are shuffled (seeded) and cut into contiguous
    chunks of near-equal size (sizes differ by at most one).  The chunk
    count is the smallest that keeps chunks at or below ``target_size``,
    reduced if necessary so no chunk falls below ``target_size - 1``;
    communities too small to split are left intact.  Chunks are relabeled
    1..K' in (original community, chunk) order.  ``seed`` is required.
    """
    if target_size < 2:
        raise ValueError("target_size must be at least 2")
    if seed is None:
        raise ValueError("split_communities needs a seed")
    rng = np.random.default_rng(seed)
    new_labels = np.zeros(cm.n, dtype=np.int64)
    next_label = 1
    for k in range(1, cm.K + 1):
        nodes = cm.members(k)
        c = nodes.size
        m = -(-c // target_size)  # ceil
        while m > 1 and c // m < target_size - 1:
            m -= 1
        shuffled = rng.permutation(nodes)
        for chunk in np.array_split(shuffled, m):
            new_labels[chunk] = next_label
            next_label += 1
    from .data import CommunityMap

    return CommunityMap(assignments=new_labels)
